// Command ektelo-router fronts a sharded ektelo-serve cluster: a thin
// reverse proxy that places every dataset on a consistent-hash ring
// over the topology's backends and routes accordingly — writes
// (create/measure/plan) to the dataset's single ring primary, reads
// (summary/budget/query) fanned across its ready replicas with
// least-inflight ordering and retry-on-next for idempotent reads.
// Health probes (/healthz + /v1/status on every backend) drive the
// readiness view; when a primary is down its datasets keep serving
// reads from the freshest replica with explicit staleness headers
// (X-Ektelo-Stale, X-Ektelo-Generation) while writes fail with 503 —
// the router never elects a second writer, so per-dataset budget
// accounting cannot fork.
//
// Usage:
//
//	ektelo-router -topology FILE [-addr :8198] [-shutdown-grace 10s]
//
// Backends are health-probed every 500ms.
//
// The topology file is static JSON membership:
//
//	{
//	  "replicas": 1,
//	  "backends": [
//	    {"name": "serve-a", "addr": "http://127.0.0.1:8201"},
//	    {"name": "serve-b", "addr": "http://127.0.0.1:8202"},
//	    {"name": "serve-c", "addr": "http://127.0.0.1:8203"}
//	  ]
//	}
//
// Each backend is an ektelo-serve process started with the same
// topology and its own -self name, which makes it host read replicas
// for the datasets the ring places on it. The router adds
//
//	GET /healthz            — router liveness
//	GET /v1/cluster/status  — per-backend readiness, request/latency
//	                          accounting, and dataset placements
//
// on top of the proxied serve API. See internal/cluster for the
// routing, replication and failover semantics, and the README's
// "Running a cluster" walkthrough for a full session.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8198", "listen address")
	topologyPath := flag.String("topology", "", "cluster topology file (required)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "in-flight request deadline on SIGINT/SIGTERM")
	flag.Parse()

	if *topologyPath == "" {
		log.Fatal("-topology is required")
	}
	topo, err := cluster.LoadTopology(*topologyPath)
	if err != nil {
		log.Fatal(err)
	}
	r, err := cluster.NewRouter(topo, cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	r.Start()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           r.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("ektelo-router listening on %s (%d backends, %d replicas per dataset)",
			*addr, len(topo.Backends), topo.Replicas)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		r.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("ektelo-router shutting down (grace %v)", *shutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	r.Close()
	log.Printf("ektelo-router stopped")
}
