// Command ektelo-serve runs the EKTELO query service: an HTTP/JSON
// front end that keeps per-dataset vectorized state and measurement
// logs warm inside concurrent protected kernels and answers client
// range workloads through the batched MatMat/CGLSMulti panel tier.
//
// Usage:
//
//	ektelo-serve [-addr :8199] [-solver lsmr|cgls|normal|nnls]
//	             [-state-dir DIR] [-shutdown-grace 10s]
//	             [-preload name:kind:n:scale:seed:eps ...]
//	             [-topology FILE -self NAME]
//
// Queries arriving within 250µs of each other are answered as one
// panel of up to 64 requests, with 3 bootstrap columns for per-answer
// standard errors, and each dataset caches the answers of 256
// workloads at its current log generation.
//
// The estimate panel behind every answer is solved by the block solver
// named with -solver: lsmr (solver.LSMRMulti, the paper's §7.6 solver;
// the default), cgls (solver.CGLSMulti), normal (solver.NormalMulti
// over normal equations that new measurements fold into at O(delta
// rows) per refresh, with answers bit-identical under any refresh
// schedule; see the internal/serve package docs), or nnls
// (solver.NNLSMulti, every estimate non-negative, always solved cold;
// it takes no damping). A dataset created over HTTP may override the
// choice per dataset with the "solver" field, and may set "damping"
// (lsmr and normal only) to a Tikhonov λ that regularizes
// ill-conditioned measurement logs. lsmr and cgls also refresh
// incrementally: each refresh warm-starts from the previous
// generation's panel and stops at the cold solve's absolute convergence
// target.
//
// With -state-dir every measurement commit persists under that
// directory, and re-creating a dataset name (preload included) restores
// the log and its spent budget, so a restarted server answers
// bit-identically. Each commit appends one CRC-framed record to a
// per-dataset write-ahead log (O(delta) bytes per commit) and syncs it
// before the commit is acknowledged, so a restart never re-grants
// spent budget. Every 64 records the log is compacted into a fresh log
// holding only the records that rebuild the current state; a torn log
// tail from a crash is truncated at the first bad frame on restart,
// never refused. A state directory still holding a
// <name>.snapshot.json written by an older version is refused at
// create (preload exits non-zero naming the file); run the older
// version on it with -checkpoint-every 1 and make one commit to fold
// the file into the log (see the README's upgrade note). On
// an unrecoverable disk error a dataset degrades to read-only — writes
// return 503 while queries keep serving from the warm panel.
//
// Every committed charge also appends a leaf to the dataset's
// append-only Merkle audit ledger, served as ed25519-signed tree heads
// with inclusion and consistency proofs under
// /v1/datasets/{name}/audit/ — verify externally with `ektelo-audit`.
// With -state-dir the signing key persists at <state-dir>/audit.key
// (created 0600 on first start), so auditors' trust-on-first-use pins
// survive restarts; without it the key is ephemeral per process.
//
// With -topology (a cluster topology file — see internal/cluster) and
// -self (this process's backend name in it), the process joins a serve
// cluster as a replica host: a follower manager polls the other
// backends, creates local read-replica datasets for every dataset the
// consistent-hash ring places here, and tails each primary's
// replication stream (its WAL served as verbatim frames over
// /v1/datasets/{name}/wal). Follower datasets answer reads
// bit-identically to the primary at equal generation (normal solver)
// and refuse writes with 421 plus the primary's address; budget is
// mirrored, never spent. Put the `ektelo-router` binary in front of
// the cluster to get placement-aware routing.
//
// SIGINT/SIGTERM shut the server down gracefully: the listener stops
// accepting, in-flight requests get -shutdown-grace to finish, then
// every dataset's batcher drains and its log is fsynced and closed.
//
// The API (see internal/serve):
//
//	GET  /healthz                      — liveness
//	GET  /v1/status                    — per-dataset cluster state
//	GET  /v1/plans                     — the Fig. 2 plan registry
//	GET  /v1/strategies                — measurement strategies
//	GET  /v1/datasets                  — dataset summaries
//	GET  /v1/datasets/{name}/wal       — replication-stream tail
//	GET  /v1/datasets/{name}/audit/checkpoint   — signed ledger head
//	GET  /v1/datasets/{name}/audit/proof        — charge inclusion proof
//	GET  /v1/datasets/{name}/audit/consistency  — append-only proof
//	POST /v1/datasets                  — create a synthetic dataset
//	GET  /v1/datasets/{name}           — one dataset's summary
//	GET  /v1/datasets/{name}/budget    — remaining-budget report
//	POST /v1/datasets/{name}/measure   — spend budget on a strategy
//	POST /v1/datasets/{name}/plan      — execute a Fig. 2 registry plan
//	POST /v1/datasets/{name}/query     — answer a range workload
//
// Example session (fixed strategy, then a full DAWA plan):
//
//	ektelo-serve -state-dir /var/lib/ektelo \
//	             -preload census:piecewise:4096:1000000:7:10 &
//	curl -s localhost:8199/v1/datasets/census/budget
//	curl -s -XPOST localhost:8199/v1/datasets/census/measure \
//	     -d '{"strategy":"hb","eps":1}'
//	curl -s -XPOST localhost:8199/v1/datasets/census/plan \
//	     -d '{"plan":"DAWA","eps":1}'
//	curl -s -XPOST localhost:8199/v1/datasets/census/query \
//	     -d '{"ranges":[[0,1023],[512,2047]]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8199", "listen address")
	solverName := flag.String("solver", "lsmr",
		fmt.Sprintf("estimate-panel block solver %v; dataset creates may override per dataset", serve.Solvers()))
	stateDir := flag.String("state-dir", "", "persist measurement logs durably under this directory (restores on create)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "in-flight request deadline on SIGINT/SIGTERM")
	topologyPath := flag.String("topology", "", "cluster topology file; enables the follower manager (requires -self)")
	self := flag.String("self", "", "this process's backend name in the -topology file")
	var preloads preloadList
	flag.Var(&preloads, "preload", "preload dataset as name:kind:n:scale:seed:eps (repeatable)")
	flag.Parse()

	if !slices.Contains(serve.Solvers(), *solverName) {
		log.Fatalf("unknown -solver %q (have %v)", *solverName, serve.Solvers())
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			log.Fatalf("state dir: %v", err)
		}
	}
	s := serve.New(serve.Config{Solver: *solverName, StateDir: *stateDir})

	for _, p := range preloads {
		d, err := s.CreateDataset(p.name, p.kind, p.n, p.scale, p.seed, p.eps)
		if err != nil {
			log.Fatalf("preload %s: %v", p.name, err)
		}
		sum := d.Summary()
		log.Printf("preloaded dataset %q: domain %d, ε_total %g", sum.Name, sum.Domain, sum.EpsTotal)
	}

	// Under -topology this process is a cluster member: the follower
	// manager keeps local read replicas of every dataset the ring
	// assigns here, tailing the primaries' replication streams.
	var mgr *cluster.Manager
	if (*topologyPath == "") != (*self == "") {
		log.Fatalf("-topology and -self go together")
	}
	if *topologyPath != "" {
		topo, err := cluster.LoadTopology(*topologyPath)
		if err != nil {
			log.Fatal(err)
		}
		mgr, err = cluster.NewManager(s, topo, *self, cluster.Options{})
		if err != nil {
			log.Fatal(err)
		}
		mgr.Start()
		log.Printf("cluster member %q: following ring placements from %s", *self, *topologyPath)
	}

	// The header/read timeouts bound slow or stalled clients; the write
	// timeout is generous because a cold panel solve on a large domain
	// legitimately takes seconds.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("ektelo-serve listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		s.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain
	log.Printf("ektelo-serve shutting down (grace %v)", *shutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	// With the listener quiet, stop following, then drain every
	// dataset's batcher and fsync and close its write-ahead log.
	if mgr != nil {
		mgr.Close()
	}
	s.Close()
	log.Printf("ektelo-serve stopped")
}

// preload is one -preload flag value.
type preload struct {
	name, kind string
	n          int
	scale, eps float64
	seed       uint64
}

type preloadList []preload

func (l *preloadList) String() string {
	parts := make([]string, len(*l))
	for i, p := range *l {
		parts[i] = p.name
	}
	return strings.Join(parts, ",")
}

func (l *preloadList) Set(v string) error {
	f := strings.Split(v, ":")
	if len(f) != 6 {
		return fmt.Errorf("want name:kind:n:scale:seed:eps, got %q", v)
	}
	n, err := strconv.Atoi(f[2])
	if err != nil {
		return fmt.Errorf("bad n %q", f[2])
	}
	scale, err := strconv.ParseFloat(f[3], 64)
	if err != nil {
		return fmt.Errorf("bad scale %q", f[3])
	}
	seed, err := strconv.ParseUint(f[4], 10, 64)
	if err != nil {
		return fmt.Errorf("bad seed %q", f[4])
	}
	eps, err := strconv.ParseFloat(f[5], 64)
	if err != nil {
		return fmt.Errorf("bad eps %q", f[5])
	}
	*l = append(*l, preload{name: f[0], kind: f[1], n: n, scale: scale, seed: seed, eps: eps})
	return nil
}
