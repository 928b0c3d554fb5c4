package main

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core/inference"
	"repro/internal/core/selection"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/wal"
)

// The traced run. Nothing inside the program is instrumented: the
// harness serves the generated op stream from an in-process
// serve.Server (or cluster.Router plus two servers) whose Handler() it
// wraps, and replays sampled ops one layer down on a twin, timing each
// public call it makes. The nesting it assumes is
//
//	client ⊃ [cluster.router ⊃] serve.handler ⊃ dataset.query   ⊃ {serve.batch_wait, serve.refresh ⊃ solver.solve, mat.matmat}
//	                                          ⊃ dataset.measure ⊃ {kernel.measure, wal.append, audit.append}
//
// client, cluster.router and serve.handler are real spans of the op;
// everything below is the same op replayed on the twin. A layer's self
// time is its span minus its children, so per op the selfs sum to the
// client span exactly.
const (
	spanClient  = "client"
	spanRouter  = "cluster.router"
	spanHandler = "serve.handler"
	spanQuery   = "dataset.query"
	spanMeasure = "dataset.measure"
	spanWait    = "serve.batch_wait"
	spanRefresh = "serve.refresh"
	spanSolve   = "solver.solve"
	spanMatMat  = "mat.matmat"
	spanKernel  = "kernel.measure"
	spanWAL     = "wal.append"
	spanAudit   = "audit.append"
)

// Span is one timed interval: what ran, for which op, caused by which
// enclosing span of the same op.
type Span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"` // from the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracedOp is one op of the traced phase as the client saw it.
type tracedOp struct {
	id     uint64
	ranges []mat.Range1D // nil for a write
	write  int           // index in the write stream, -1 for a query
	sent   time.Time
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	ops   []tracedOp
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name, parent string, op uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Op: op, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.ops = nil, nil
	t.mu.Unlock()
}

// spanCostMs is what recording one span costs, measured on a scratch
// tracer.
func spanCostMs() float64 {
	s := newTracer()
	const n = 10000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		s.add("x", "", uint64(i), now, now)
	}
	return float64(time.Since(t0)) / 1e6 / n
}

// middleware records a span around next for every request that carries
// an op id (?op=N; the router forwards the request URI verbatim, so the
// id reaches the backends too).
func (t *tracer) middleware(name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.URL.Query().Get("op")
		if raw == "" {
			next.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(raw, 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(name, parent, id, start, time.Now())
	})
}

// attach makes the load's connections report every op to the tracer.
func (t *tracer) attach(l *load) {
	for _, q := range l.queriers {
		q.onReply = func(id uint64, ranges []mat.Range1D, sent, done time.Time) {
			t.add(spanClient, "", id, sent, done)
			t.mu.Lock()
			t.ops = append(t.ops, tracedOp{id: id, ranges: ranges, write: -1, sent: sent})
			t.mu.Unlock()
		}
	}
	l.writer.onReply = func(id uint64, index int, sent, done time.Time) {
		t.add(spanClient, "", id, sent, done)
		t.mu.Lock()
		t.ops = append(t.ops, tracedOp{id: id, write: index, sent: sent})
		t.mu.Unlock()
	}
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes computes, for every op that has a client span, the self
// time of each of its spans: the span's duration minus the durations
// of the spans that name it as parent. It returns the selfs per op and
// the ops whose spans do not form one tree under the client span.
func selfTimes(spans []Span) (selfs map[uint64]map[string]int64, broken []uint64) {
	byOp := map[uint64][]Span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	selfs = map[uint64]map[string]int64{}
	for op, ss := range byOp {
		names := map[string]bool{}
		for _, s := range ss {
			names[s.Name] = true
		}
		if !names[spanClient] {
			continue
		}
		self := map[string]int64{}
		ok := true
		for _, s := range ss {
			self[s.Name] += s.dur()
			if s.Parent == "" {
				ok = ok && s.Name == spanClient
				continue
			}
			if !names[s.Parent] {
				ok = false
				continue
			}
			self[s.Parent] -= s.dur()
		}
		if !ok {
			broken = append(broken, op)
			continue
		}
		selfs[op] = self
	}
	return selfs, broken
}

// launchInProcess serves the workload from this process, configured as
// the binaries are, with every handler wrapped by the tracer.
func launchInProcess(tr *tracer) launcher {
	return func(_ context.Context, spec workloadSpec, dir string) (*instance, error) {
		in := &instance{flags: map[string][]string{}, ctl: &http.Client{Timeout: 30 * time.Second}, usage: func() procUsage { return procUsage{} }}
		var closers []func()
		in.stop = func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		}
		listen := func(h http.Handler) (string, error) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return "", err
			}
			hs := &http.Server{Handler: h}
			done := make(chan struct{})
			go func() {
				_ = hs.Serve(l)
				close(done)
			}()
			closers = append(closers, func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_ = hs.Shutdown(ctx)
				cancel()
				<-done
			})
			return "http://" + l.Addr().String(), nil
		}
		newServer := func(name string) *serve.Server {
			s := serve.New(serveConfig(filepath.Join(dir, "state-"+name)))
			closers = append(closers, s.Close)
			return s
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if !spec.routed {
			if err := os.MkdirAll(filepath.Join(dir, "state-serve"), 0o755); err != nil {
				return nil, err
			}
			url, err := listen(tr.middleware(spanHandler, spanClient, newServer("serve").Handler()))
			if err != nil {
				in.stop()
				return nil, err
			}
			in.base, in.backends = url, []string{url}
			return in, nil
		}
		names := []string{"serve-a", "serve-b"}
		servers := make([]*serve.Server, len(names))
		topo := cluster.Topology{Replicas: 1}
		for i, n := range names {
			if err := os.MkdirAll(filepath.Join(dir, "state-"+n), 0o755); err != nil {
				return nil, err
			}
			servers[i] = newServer(n)
			url, err := listen(tr.middleware(spanHandler, spanRouter, servers[i].Handler()))
			if err != nil {
				in.stop()
				return nil, err
			}
			in.backends = append(in.backends, url)
			topo.Backends = append(topo.Backends, cluster.Backend{Name: n, Addr: url})
		}
		for i, n := range names {
			m, err := cluster.NewManager(servers[i], topo, n, cluster.Options{ProbeInterval: 200 * time.Millisecond})
			if err != nil {
				in.stop()
				return nil, err
			}
			m.Start()
			closers = append(closers, m.Close)
		}
		router, err := cluster.NewRouter(topo, cluster.Options{})
		if err != nil {
			in.stop()
			return nil, err
		}
		router.Start()
		closers = append(closers, router.Close)
		url, err := listen(tr.middleware(spanRouter, spanClient, router.Handler()))
		if err != nil {
			in.stop()
			return nil, err
		}
		in.base = url
		return in, nil
	}
}

// runTraced is the --trace 1 run of a served workload. Phase A is the
// untraced measurement against the real binaries, shortened: it yields
// the program's counters, the processes' CPU and memory, and the
// client median the traced phase is compared with. Phase B serves the
// same op stream in process with spans on; phase C replays sampled ops
// on a twin, one layer down.
func runTraced(ctx context.Context, spec workloadSpec, opt options) (*Result, error) {
	res := newResult(spec.name, true)
	runDir, err := os.MkdirTemp(opt.scratch, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	res.Env = newEnv(opt, runDir)
	res.Env.Connections = clients
	phase := opt
	phase.seconds = 0.4 * opt.seconds

	// Phase A.
	twA, err := newTwin(spec)
	if err != nil {
		return nil, err
	}
	defer twA.close()
	inA, _, err := bringUp(ctx, spec, opt.seed, filepath.Join(runDir, "a"), launchChildren(opt), twA)
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}
	resA := newResult(spec.name, false)
	mA, err := measureServed(ctx, resA, inA, spec, phase, twA, nil)
	res.Env.ChildFlags = inA.flags
	inA.stop()
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}
	mA.report(resA, spec)
	res.absorb(resA, "untraced: ")
	untracedP50 := resA.EndToEnd["query_p50_ms"].Value

	// Phase B.
	tr := newTracer()
	twB, err := newTwin(spec)
	if err != nil {
		return nil, err
	}
	defer twB.close()
	inB, _, err := bringUp(ctx, spec, opt.seed, filepath.Join(runDir, "b"), launchInProcess(tr), twB)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	resB := newResult(spec.name, true)
	mB, err := measureServed(ctx, resB, inB, spec, phase, twB, tr)
	inB.stop()
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	res.absorb(resB, "traced: ")
	res.Env.Seconds = mA.timed.seconds + mB.timed.seconds

	// Phase C.
	bytesPerCommit := int(res.PerLayer["wal.bytes_per_commit"].Value)
	if err := replayOnTwin(res, spec, opt.seed, tr, runDir, bytesPerCommit); err != nil {
		return nil, err
	}
	reportLayers(res, spec, tr, untracedP50)
	zeroMissingLayers(res)
	if err := tr.write(filepath.Join(opt.out, "trace-"+spec.name+".json")); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// absorb folds another phase's result into r: its counters become r's
// per-layer metrics, its checks and failures count in r.
func (r *Result) absorb(o *Result, prefix string) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, c := range o.Checks {
		c.Name = prefix + c.Name
		r.Checks = append(r.Checks, c)
	}
	r.Errors = append(r.Errors, o.Errors...)
	for k, v := range o.PerLayer {
		r.PerLayer[k] = v
	}
}

// replayEveryQuery: on the closed-loop workloads 1 in this many queries
// is replayed on the twin. Every write is, and on mixed.rw so is every
// read that pays a write's refresh.
const replayEveryQuery = 25

// panelCols is the width of the server's estimate panel: the estimate
// plus ektelo-serve's default three bootstrap replicates.
const panelCols = 4

// replayOnTwin walks the traced phase's ops in send order on a fresh
// twin and records, for the sampled ones, the spans beneath
// serve.handler.
func replayOnTwin(res *Result, spec workloadSpec, seed uint64, tr *tracer, dir string, bytesPerCommit int) error {
	tw, err := newTwin(spec)
	if err != nil {
		return err
	}
	defer tw.close()
	tr.mu.Lock()
	ops := append([]tracedOp(nil), tr.ops...)
	tr.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool { return ops[i].sent.Before(ops[j].sent) })

	const k = panelCols
	panel := make([]float64, spec.domain*k)
	rng := rand.New(rand.NewPCG(seed, 0x7ace))
	for i := range panel {
		panel[i] = rng.NormFloat64()
	}
	if spec.pooled {
		// The server's cache was warm when the timed phase began.
		for _, op := range hotPool(spec, seed) {
			if _, err := tw.answers(op.ranges); err != nil {
				return err
			}
		}
	}
	layers, err := newLayerBench(spec, seed, dir, bytesPerCommit)
	if err != nil {
		return err
	}
	defer layers.close()

	// Replayed queries miss the cache on query.cold (always) and on
	// mixed.rw (the read after a commit); only a miss reaches mat.
	misses := !spec.pooled || spec.open
	pendingRefresh := false // a write has landed on the twin and no read has absorbed it yet
	queries, firstWrite := 0, -1
	for _, op := range ops {
		if op.write >= 0 {
			if firstWrite < 0 {
				// Bring the twin to the log the traced phase started from
				// (the warm-up's commits), refreshing as the server did.
				firstWrite = op.write
				for i := 0; i < firstWrite; i++ {
					if err := tw.replayWrites(spec, i, 1); err != nil {
						return err
					}
					if err := tw.ds.Refresh(); err != nil {
						return err
					}
				}
			}
			w := writeAt(spec, op.write)
			t0 := time.Now()
			if _, _, err := tw.ds.MeasureAudited(w.strategy, writeEps); err != nil {
				return err
			}
			t1 := time.Now()
			pendingRefresh = true
			tr.add(spanMeasure, spanHandler, op.id, t0, t1)
			layers.commitPath(tr, op.id, w.strategy, len(setupStrategies)+op.write)
			continue
		}
		queries++
		sampled := queries%replayEveryQuery == 0
		if spec.open {
			sampled = pendingRefresh
		}
		if !sampled {
			if pendingRefresh {
				// Unsampled, but the twin must still refresh where the
				// server did, or its next warm start begins further back.
				if err := tw.ds.Refresh(); err != nil {
					return err
				}
				pendingRefresh = false
			}
			continue
		}
		t0 := time.Now()
		if pendingRefresh {
			if err := tw.ds.Refresh(); err != nil {
				return err
			}
			t1 := time.Now()
			tr.add(spanRefresh, spanQuery, op.id, t0, t1)
			layers.solve(tr, op.id, tw.ds.Summary())
			pendingRefresh = false
			// The direct solve above is not part of the query: restart
			// the query's clock and count the refresh into it below.
			q0 := time.Now()
			if _, err := tw.answers(op.ranges); err != nil {
				return err
			}
			tr.add(spanQuery, spanHandler, op.id, t0, t1.Add(time.Since(q0)))
		} else {
			if _, err := tw.answers(op.ranges); err != nil {
				return err
			}
			tr.add(spanQuery, spanHandler, op.id, t0, time.Now())
		}
		if misses {
			// A miss builds a RangeQueries over the request's ranges and
			// multiplies it into the estimate panel.
			t := time.Now()
			wm := mat.RangeQueries(spec.domain, op.ranges)
			dst := make([]float64, len(op.ranges)*k)
			mat.MatMat(wm, dst, panel, k)
			tr.add(spanMatMat, spanQuery, op.id, t, time.Now())
		}
		// The same ranges again are a certain hit: the batcher's channel
		// hop and window, and nothing else.
		t := time.Now()
		if _, err := tw.answers(op.ranges); err != nil {
			return err
		}
		tr.add(spanWait, spanQuery, op.id, t, time.Now())
	}
	if misses {
		res.PerLayer["mat.flops"] = Metric{Value: float64(k * (spec.domain + 4*spec.ranges)), Unit: "flop", Note: "computed from shapes: prefix pass plus two signed reads per range, per panel column"}
	}
	return nil
}

// layerBench holds the scratch state of the direct layer calls.
type layerBench struct {
	spec      workloadSpec
	x         []float64
	kern      *kernel.Kernel
	root      *kernel.Handle
	log       *wal.Log
	record    []byte
	tree      *audit.Tree
	key       ed25519.PrivateKey
	strat     map[string]mat.Matrix
	blocks    []mat.Matrix // canonical (CSR) strategies of the log so far
	blockRows []int
	rng       *rand.Rand
}

func newLayerBench(spec workloadSpec, seed uint64, dir string, bytesPerCommit int) (*layerBench, error) {
	b := &layerBench{spec: spec, strat: map[string]mat.Matrix{}, tree: audit.NewTree(), rng: rand.New(rand.NewPCG(seed, 0x1a7e))}
	b.x = make([]float64, spec.domain)
	for i := range b.x {
		b.x[i] = float64(b.rng.IntN(1000))
	}
	b.kern, b.root = kernel.InitVectorSeeded(b.x, epsTotal, seed)
	for _, s := range []string{"h2", "identity", "hb"} {
		m, err := strategy(s, spec.domain)
		if err != nil {
			return nil, err
		}
		b.strat[s] = m
	}
	var err error
	if b.log, _, err = wal.Open(filepath.Join(dir, "layer.wal"), wal.Options{Policy: wal.PolicyAlways}); err != nil {
		return nil, err
	}
	b.record = make([]byte, max(bytesPerCommit, 64))
	for i := range b.record {
		b.record[i] = byte('a' + i%26)
	}
	_, b.key, err = ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	for _, s := range setupStrategies {
		b.grow(s)
	}
	return b, nil
}

func (b *layerBench) close() { _ = b.log.Close() }

// strategy mirrors serve's name → matrix table for the strategies the
// benchmark measures.
func strategy(name string, n int) (mat.Matrix, error) {
	switch name {
	case "h2":
		return selection.H2(n), nil
	case "identity":
		return selection.Identity(n), nil
	case "hb":
		return selection.HB(n), nil
	}
	return nil, fmt.Errorf("bench: no strategy %q", name)
}

// grow appends a strategy to the bench's picture of the measurement
// log, in the CSR form serve commits blocks in.
func (b *layerBench) grow(name string) {
	m := b.strat[name]
	rows, cols := m.Dims()
	if sp, ok := mat.ToSparse(m, rows*cols); ok {
		m = sp
	}
	b.blocks = append(b.blocks, m)
	b.blockRows = append(b.blockRows, rows)
	for b.tree.Size() < uint64(len(b.blocks)) {
		b.tree.Append(audit.LeafHash([]byte{byte(b.tree.Size())}))
	}
}

// growTo extends the picture to n blocks along the write stream.
func (b *layerBench) growTo(n int) {
	for len(b.blocks) < n {
		b.grow(writeAt(b.spec, len(b.blocks)-len(setupStrategies)).strategy)
	}
}

// commitPath times the three layers a commit crosses, at the commit's
// own shapes: the kernel's charge-and-noise, a durable append of a
// record as large as the server's, and the ledger leaf plus signed head
// at the ledger's current size.
func (b *layerBench) commitPath(tr *tracer, op uint64, name string, commits int) {
	b.growTo(commits)
	t0 := time.Now()
	sess := b.kern.NewSession()
	_, _, _ = sess.Bind(b.root).VectorLaplace(b.strat[name], writeEps)
	t1 := time.Now()
	tr.add(spanKernel, spanMeasure, op, t0, t1)

	// Two appends, two fsyncs: the measurement record and the audit
	// checkpoint record (see commitFsyncs).
	t0 = time.Now()
	_ = b.log.Append(wal.TypeMeasurementBlock, b.record)
	_ = b.log.Append(wal.TypeAuditCheckpoint, b.record[:64])
	t1 = time.Now()
	tr.add(spanWAL, spanMeasure, op, t0, t1)

	t0 = time.Now()
	e := audit.Entry{Dataset: datasetName, Gen: uint64(commits), Op: "measure:" + name, Session: commits, Charges: 1, Eps: writeEps, Consumed: float64(commits) * writeEps, Commitment: "0000000000000000000000000000000000000000000000000000000000000000"}
	b.tree.Append(e.LeafHash())
	root := b.tree.Root()
	_ = audit.SignCheckpoint(b.key, datasetName, b.tree.Size(), root)
	t1 = time.Now()
	tr.add(spanAudit, spanMeasure, op, t0, t1)
	b.grow(name)
}

// solve calls solver.LSMRMulti directly on the stacked, row-weighted
// strategy of the log so far, for exactly as many iterations as the
// twin's refresh just took: per iteration the warm-started refresh and
// this call do the same passes over the same matrix.
func (b *layerBench) solve(tr *tracer, op uint64, sum serve.Summary) {
	const k = panelCols
	b.growTo(sum.Measurements)
	ms := inference.NewMeasurements(b.spec.domain)
	for i, m := range b.blocks[:sum.Measurements] {
		ms.Add(m, make([]float64, b.blockRows[i]), 1)
	}
	a := ms.Matrix()
	rows, _ := a.Dims()
	y := make([]float64, rows*k)
	for i := range y {
		y[i] = b.rng.NormFloat64()
	}
	w := make([]float64, rows)
	for i := range w {
		w[i] = 1
	}
	iters := max(sum.SolveIterations, 1)
	t0 := time.Now()
	solver.LSMRMulti(mat.RowScaled(w, a), y, k, solver.Options{MaxIter: iters, Tol: 1e-300})
	tr.add(spanSolve, spanRefresh, op, t0, time.Now())
}

// reportLayers turns the spans into the per-layer times. Every value
// is the median, over the replayed ops that entered the layer, of the
// layer's self time.
func reportLayers(res *Result, spec workloadSpec, tr *tracer, untracedP50 float64) {
	tr.mu.Lock()
	spans := append([]Span(nil), tr.spans...)
	tr.mu.Unlock()
	selfs, broken := selfTimes(spans)

	// Only ops replayed down to dataset.* attribute the whole client span.
	per := map[string][]float64{}
	var clientAll []float64
	replayed, mismatched := 0, 0
	dur := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == spanClient {
			dur[s.Op] = s.dur()
			if s.Op>>32 != writerClient {
				clientAll = append(clientAll, float64(s.dur())/1e6)
			}
		}
	}
	for op, self := range selfs {
		_, q := self[spanQuery]
		_, m := self[spanMeasure]
		if !q && !m {
			continue
		}
		replayed++
		var sum int64
		for _, v := range self {
			sum += v
		}
		if sum != dur[op] {
			mismatched++
		}
		for name, v := range self {
			per[name] = append(per[name], float64(v)/1e6)
		}
		// Both directions of the socket and everything net/http and
		// encoding/json do on either side of Dataset.Query / MeasureAudited.
		per["http"] = append(per["http"], float64(self[spanClient]+self[spanHandler])/1e6)
		// What Dataset.Query and MeasureAudited spend outside the layers
		// below them: answerBatch's allocations and fingerprints for a
		// query; canonicalising and encoding the commit record and the
		// replication buffer for a write.
		if q {
			per["unattributed"] = append(per["unattributed"], float64(self[spanQuery])/1e6)
		} else {
			per["commit_other"] = append(per["commit_other"], float64(self[spanMeasure])/1e6)
		}
	}
	res.check("layer self-times sum to the client span", replayed > 0 && mismatched == 0 && len(broken) == 0,
		"%d replayed ops, %d with a different sum, %d with a broken span tree", replayed, mismatched, len(broken))

	set := func(metric, name string) {
		if len(per[name]) == 0 {
			return
		}
		d := summarize(per[name])
		res.layer(metric, d.Median, &d)
	}
	set("serve.http_ms", "http")
	set("serve.unattributed_ms", "unattributed")
	set("serve.commit_other_ms", "commit_other")
	set("cluster.hop_ms", spanRouter)
	set("serve.batch_wait_ms", spanWait)
	set("serve.refresh_ms", spanRefresh)
	set("solver.solve_ms", spanSolve)
	set("mat.matmat_ms", spanMatMat)
	set("kernel.measure_ms", spanKernel)
	set("wal.append_ms", spanWAL)
	set("audit.append_ms", spanAudit)

	cd := summarize(clientAll)
	res.layer("trace.client_ms", cd.Median, &cd)
	res.layer("trace.overhead_ms", cd.Median-untracedP50, nil)
}
