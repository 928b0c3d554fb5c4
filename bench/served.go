package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// instance is one running system under test: a server (or a router in
// front of two) with the dataset created, measured and answering.
type instance struct {
	base     string   // where the load goes: the server, or the router
	backends []string // every ektelo-serve, for counters read from outside
	primary  int      // index in backends of the dataset's writer
	stop     func()
	usage    func() procUsage // CPU and peak RSS summed over the served processes
	flags    map[string][]string
	ctl      *http.Client // control plane: set-up, counters, checks; never inside a timed phase
}

func (in *instance) queryURL() string   { return in.base + "/v1/datasets/" + datasetName + "/query" }
func (in *instance) measureURL() string { return in.base + "/v1/datasets/" + datasetName + "/measure" }

// launcher starts the processes of one instance in dir.
type launcher func(ctx context.Context, spec workloadSpec, dir string) (*instance, error)

// launchChildren starts the real binaries with their default flags.
func launchChildren(opt options) launcher {
	return func(ctx context.Context, spec workloadSpec, dir string) (*instance, error) {
		serveBin := filepath.Join(opt.bin, "ektelo-serve")
		routerBin := filepath.Join(opt.bin, "ektelo-router")
		var kids []*child
		stop := func() {
			// The router goes first so it never proxies to a closing backend.
			for i := len(kids) - 1; i >= 0; i-- {
				kids[i].stop()
			}
		}
		in := &instance{flags: map[string][]string{}, ctl: &http.Client{Timeout: 30 * time.Second}, stop: stop}
		in.usage = func() procUsage {
			var sum procUsage
			for _, k := range kids {
				if u, err := k.usage(); err == nil {
					sum.cpu += u.cpu
					sum.rssPeakB += u.rssPeakB
				}
			}
			return sum
		}
		start := func(bin, name, addr string, args ...string) (*child, error) {
			c, err := startChild(ctx, bin, name, addr, dir, args...)
			if err != nil {
				stop()
				return nil, err
			}
			kids = append(kids, c)
			in.flags[name] = c.args
			return c, nil
		}
		// The topology names addresses, so every port is picked first.
		names := []string{"serve"}
		if spec.routed {
			names = []string{"serve-a", "serve-b", "router"}
		}
		addrs, err := freeAddrs(len(names))
		if err != nil {
			return nil, err
		}
		if !spec.routed {
			c, err := start(serveBin, names[0], addrs[0], "-state-dir", filepath.Join(dir, "state"))
			if err != nil {
				return nil, err
			}
			in.base, in.backends = c.url, []string{c.url}
			return in, nil
		}
		var members []map[string]string
		for i, n := range names[:2] {
			members = append(members, map[string]string{"name": n, "addr": "http://" + addrs[i]})
		}
		topoPath := filepath.Join(dir, "topology.json")
		data, _ := json.Marshal(map[string]any{"replicas": 1, "backends": members})
		if err := os.WriteFile(topoPath, data, 0o644); err != nil {
			return nil, err
		}
		for i, n := range names[:2] {
			c, err := start(serveBin, n, addrs[i], "-state-dir", filepath.Join(dir, "state-"+n), "-topology", topoPath, "-self", n)
			if err != nil {
				return nil, err
			}
			in.backends = append(in.backends, c.url)
		}
		// The backends are healthy before the router starts, so its first
		// probe sweep already finds them.
		r, err := start(routerBin, names[2], addrs[2], "-topology", topoPath)
		if err != nil {
			return nil, err
		}
		in.base = r.url
		return in, nil
	}
}

func (in *instance) post(url string, body []byte, want int) ([]byte, error) {
	resp, err := in.ctl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d, want %d: %.200s", url, resp.StatusCode, want, data)
	}
	return data, nil
}

// backendStatus is one backend's /v1/status row for the dataset.
func (in *instance) backendStatus(i int) (serve.DatasetStatus, bool, error) {
	var st serve.Status
	if err := getJSON(in.ctl, in.backends[i]+"/v1/status", &st); err != nil {
		return serve.DatasetStatus{}, false, err
	}
	for _, d := range st.Datasets {
		if d.Name == datasetName {
			return d, true, nil
		}
	}
	return serve.DatasetStatus{}, false, nil
}

// awaitRouter blocks until the router's first probe sweep has marked
// every backend ready; before that it answers writes with 503.
func (in *instance) awaitRouter(ctx context.Context) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		var st cluster.ClusterStatus
		err := getJSON(in.ctl, in.base+"/v1/cluster/status", &st)
		ready := 0
		for _, b := range st.Backends {
			if b.Ready {
				ready++
			}
		}
		if err == nil && ready == len(in.backends) {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("router sees %d of %d backends ready (err %v)", ready, len(in.backends), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitGeneration blocks until every backend reports the dataset at gen
// (a follower: has tailed and applied the primary's stream that far).
func (in *instance) awaitGeneration(ctx context.Context, gen uint64) error {
	deadline := time.Now().Add(readyTimeout)
	for i := range in.backends {
		for {
			st, ok, err := in.backendStatus(i)
			if err == nil && ok && st.Generation >= gen {
				if st.ReplicationError != "" {
					return fmt.Errorf("backend %d: replication error: %s", i, st.ReplicationError)
				}
				if !st.Follower {
					in.primary = i
				}
				break
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("backend %d did not reach generation %d (have %d, present %v, err %v)", i, gen, st.Generation, ok, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// bringUp is one set-up, timed from the first process spawn to the
// first checked 200 OK query: processes healthy, dataset created, the
// set-up measurements committed (and replicated), first refresh solved.
func bringUp(ctx context.Context, spec workloadSpec, seed uint64, dir string, launch launcher, tw *twin) (*instance, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	in, err := launch(ctx, spec, dir)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*instance, float64, error) {
		in.stop()
		return nil, 0, err
	}
	if spec.routed {
		if err := in.awaitRouter(ctx); err != nil {
			return fail(err)
		}
	}
	if _, err := in.post(in.base+"/v1/datasets", createBody(spec), http.StatusCreated); err != nil {
		return fail(err)
	}
	for _, s := range setupStrategies {
		if _, err := in.post(in.measureURL(), measureBody(s, setupEps), http.StatusOK); err != nil {
			return fail(err)
		}
	}
	if err := in.awaitGeneration(ctx, uint64(len(setupStrategies))); err != nil {
		return fail(err)
	}
	first := firstQuery(spec, seed)
	data, err := in.post(in.queryURL(), first.body, http.StatusOK)
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(t0).Seconds()
	var rep queryReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return fail(fmt.Errorf("first query: %w", err))
	}
	want, err := tw.answers(first.ranges)
	if err != nil || !matches(rep.Answers, want) {
		return fail(fmt.Errorf("first query differs from the twin: got %v want %v (err %v)", head(rep.Answers, 3), head(want, 3), err))
	}
	return in, elapsed, nil
}

// firstQuery is the reference workload of set-up and of the replica
// and final-state checks: fixed by the seed, outside every client stream.
func firstQuery(spec workloadSpec, seed uint64) queryOp {
	ranges := randomRanges(stream(seed, 0xf1), spec.domain, spec.ranges)
	return queryOp{ranges: ranges, body: appendQueryBody(nil, ranges)}
}

// counters are the program's own counts, read from outside over HTTP,
// plus the served processes' CPU time and peak memory.
type counters struct {
	hits, misses uint64
	panelSolves  int
	refreshes    int
	generation   uint64
	walOffset    int64
	auditSize    uint64
	consumed     float64
	use          procUsage
}

func (in *instance) counters() (counters, error) {
	var c counters
	for i, b := range in.backends {
		var sum serve.Summary
		if err := getJSON(in.ctl, b+"/v1/datasets/"+datasetName, &sum); err != nil {
			return c, err
		}
		c.hits += sum.Cache.Hits
		c.misses += sum.Cache.Misses
		c.panelSolves += sum.PanelSolves
		c.refreshes += sum.WarmRefreshes + sum.ColdRefreshes
		if i == in.primary {
			c.generation, c.walOffset, c.auditSize, c.consumed = sum.Generation, sum.WALOffset, sum.AuditSize, sum.Consumed
		}
	}
	c.use = in.usage()
	return c, nil
}

// phaseStats is one timed (or warm-up) phase of load.
type phaseStats struct {
	seconds float64
	q       *queryStats
	w       *writeStats
	lateNs  []int64 // open loop only
}

// load holds the connections and streams of a run; phases continue the
// same streams, so warm-up and timed phase never repeat an op.
type load struct {
	spec     workloadSpec
	queriers []*querier
	writer   *writer
}

func newLoad(in *instance, spec workloadSpec, seed uint64, traced bool) *load {
	l := &load{spec: spec}
	n := clients
	if spec.open {
		n = 1 // one reader; the second connection is the writer's
	}
	for c := 0; c < n; c++ {
		l.queriers = append(l.queriers, &querier{
			c: newConn(), url: in.queryURL(), src: newQuerySource(spec, seed, c), client: c, traced: traced,
		})
	}
	l.writer = &writer{spec: spec, c: newConn(), url: in.measureURL(), traced: traced}
	return l
}

func (l *load) close() {
	for _, q := range l.queriers {
		q.c.close()
	}
	l.writer.c.close()
}

// run drives one phase of dur: closed-loop readers, or the open-loop
// reader/writer schedule of mixed.rw.
func (l *load) run(dur time.Duration) phaseStats {
	ps := phaseStats{q: newQueryStats(), w: &writeStats{}}
	l.writer.st = ps.w
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	if !l.spec.open {
		stats := make([]*queryStats, len(l.queriers))
		for i, q := range l.queriers {
			stats[i] = newQueryStats()
			q.st = stats[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Until(start))
				q.closedLoop(start, start.Add(dur))
			}()
		}
		wg.Wait()
		for _, s := range stats {
			ps.q.merge(s)
		}
		ps.seconds = time.Since(start).Seconds()
		return ps
	}
	reader := l.queriers[0]
	reader.st = ps.q
	readPeriod := writePeriod / readsPerWrite
	var readLate, writeLate openStats
	wg.Add(2)
	go func() {
		defer wg.Done()
		readLate = openLoop(realClock{}, start, readPeriod/2, readPeriod, opsDue(dur, readPeriod/2, readPeriod),
			func(_ int, due time.Time) { reader.one(due, start) })
	}()
	go func() {
		defer wg.Done()
		writeLate = openLoop(realClock{}, start, 0, writePeriod, opsDue(dur, 0, writePeriod),
			func(_ int, due time.Time) { l.writer.one(due) })
	}()
	wg.Wait()
	ps.lateNs = append(readLate.lateNs, writeLate.lateNs...)
	ps.seconds = time.Since(start).Seconds()
	return ps
}

// writeProbe commits n writes back to back on the writer's connection,
// with no reads in between: the commit path alone.
func (l *load) writeProbe(n int) *writeStats {
	st := &writeStats{}
	l.writer.st = st
	for i := 0; i < n; i++ {
		l.writer.one(time.Now())
	}
	return st
}

// runServed measures one of the four served workloads against the real
// binaries: set-ups, warm-up, timed phase, checks, guards.
func runServed(ctx context.Context, spec workloadSpec, opt options) (*Result, error) {
	res := newResult(spec.name, false)
	runDir, err := os.MkdirTemp(opt.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	res.Env = newEnv(opt, runDir)
	res.Env.Connections = clients

	tw, err := newTwin(spec)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	defer tw.close()

	var in *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.stop()
		}
		var s float64
		in, s, err = bringUp(ctx, spec, opt.seed, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)), launchChildren(opt), tw)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, s)
	}
	defer in.stop()
	res.Env.ChildFlags = in.flags
	d := summarize(setups)
	res.e2e("setup_s", d.Median, &d)

	m, err := measureServed(ctx, res, in, spec, opt, tw, nil)
	if err != nil {
		return nil, err
	}
	m.report(res, spec)
	if q := res.EndToEnd["query_tail_ms"].Dist; samplesBeyond(q.N, spec.tail) < 10 {
		res.check("tail percentile has 10 samples beyond", false, "p%.0f of %d samples has %d beyond", spec.tail*100, q.N, samplesBeyond(q.N, spec.tail))
	}
	res.finish()
	return res, nil
}

// servedMeasurement is what the load phases of a served workload
// yielded, before it is turned into metrics.
type servedMeasurement struct {
	timed        phaseStats
	probe        *writeStats // nil on mixed.rw, whose writes are in the timed phase
	before, aftr counters    // around the timed phase
	final        counters    // after the write probe, quiesced
	catchupMs    float64
}

// measureServed runs warm-up, the timed phase, the twin comparison, the
// write probe, the final-state check and the premise guards on a
// brought-up instance. It is shared by the untraced run (real
// binaries, tr nil) and the traced run (in-process servers).
func measureServed(ctx context.Context, res *Result, in *instance, spec workloadSpec, opt options, tw *twin, tr *tracer) (*servedMeasurement, error) {
	if spec.routed {
		routedReplicaCheck(res, in, spec, opt.seed, tw)
	}
	l := newLoad(in, spec, opt.seed, tr != nil)
	defer l.close()
	if tr != nil {
		tr.attach(l)
	}
	warm := l.run(time.Duration(warmupSeconds * float64(time.Second)))
	if tr != nil {
		tr.reset() // spans of the warm-up are not part of the result
	}
	m := &servedMeasurement{}
	var err error
	if m.before, err = in.counters(); err != nil {
		return nil, err
	}
	m.timed = l.run(time.Duration(opt.seconds * float64(time.Second)))
	if m.aftr, err = in.counters(); err != nil {
		return nil, err
	}
	res.Env.Seconds = m.timed.seconds
	res.Attempted += m.timed.q.attempted + m.timed.w.attempted
	res.Failed += m.timed.q.failed + m.timed.w.failed
	res.Errors = append(res.Errors, m.timed.q.errs...)
	res.Errors = append(res.Errors, m.timed.w.errs...)
	if n := warm.q.failed + warm.w.failed; n > 0 {
		res.check("warm-up", false, "%d warm-up ops failed: %v %v", n, warm.q.errs, warm.w.errs)
	}

	acked := warm.w.acked + m.timed.w.acked
	if spec.open {
		// The twin replays the acknowledged commits in order; its noise
		// streams then match the server's draw for draw. Reads raced the
		// writes on the server, so its refresh schedule (and with it the
		// warm-start path of the iterative solver) is its own: answers
		// agree to the solver's tolerance, not bit for bit.
		if err := tw.replayWrites(spec, 0, acked); err != nil {
			return nil, err
		}
	} else {
		checked, wrong, exact, first := tw.verifySamples(m.timed.q.samples)
		res.Failed += wrong
		res.check("sampled answers equal twin", wrong == 0 && checked > 0, "%d of %d sampled replies differ by more than %.0e; %d bit-equal %s", wrong, checked, answerTolerance, exact, first)
		m.probe = l.writeProbe(probeWrites)
		if spec.routed {
			// Timed from the probe's last ack, before anything else runs:
			// the follower tails the primary every 200 ms.
			t0 := time.Now()
			err := in.awaitGeneration(ctx, uint64(len(setupStrategies)+acked+m.probe.acked))
			m.catchupMs = float64(time.Since(t0)) / 1e6
			res.check("replica caught up", err == nil, "follower at the primary's generation %.1f ms after the last ack (err %v)", m.catchupMs, err)
		}
		res.Attempted += m.probe.attempted
		res.Failed += m.probe.failed
		res.Errors = append(res.Errors, m.probe.errs...)
		if err := tw.replayWrites(spec, acked, m.probe.acked); err != nil {
			return nil, err
		}
		acked += m.probe.acked
	}
	m.final = finalStateCheck(res, in, spec, opt.seed, tw, acked)
	premiseGuards(res, spec, m)
	return m, nil
}

// replayWrites applies commits [from, from+n) of the write stream to
// the twin.
func (t *twin) replayWrites(spec workloadSpec, from, n int) error {
	for i := from; i < from+n; i++ {
		if _, err := t.ds.Measure(writeAt(spec, i).strategy, writeEps); err != nil {
			return fmt.Errorf("twin replay of write %d: %w", i, err)
		}
	}
	return nil
}

// routedReplicaCheck: at equal generation every replica answers the
// reference workload exactly as the primary (and the twin) does.
func routedReplicaCheck(res *Result, in *instance, spec workloadSpec, seed uint64, tw *twin) {
	ref := firstQuery(spec, seed)
	want, _ := tw.answers(ref.ranges)
	for i, b := range in.backends {
		data, err := in.post(b+"/v1/datasets/"+datasetName+"/query", ref.body, http.StatusOK)
		var rep queryReply
		if err == nil {
			err = json.Unmarshal(data, &rep)
		}
		role := "follower"
		if i == in.primary {
			role = "primary"
		}
		res.check(fmt.Sprintf("replica %d (%s) equals twin", i, role), err == nil && matches(rep.Answers, want), "bit-equal %v, err %v", sameBits(rep.Answers, want), err)
	}
}

// solverTolerance bounds ‖server − twin‖/‖twin‖ of the final query,
// taken after the twin has replayed every acknowledged commit. The two
// logs are then equal draw for draw, but the estimates are not bit-equal:
// on mixed.rw reads raced the writes, so the server's warm-start
// schedule is its own, and on every workload a log this long puts the
// block solve above the engine's parallel threshold, where the order of
// its partial sums follows the scheduler. The bound leaves orders of
// magnitude over what the seed commit shows (BASELINE.json) and still
// catches a lost, doubled or reordered commit.
const solverTolerance = 1e-6

// finalStateCheck reads the quiesced system back: budget, generation
// and ledger size account for exactly the acknowledged commits, the
// signed ledger head verifies, and a final query matches the twin.
func finalStateCheck(res *Result, in *instance, spec workloadSpec, seed uint64, tw *twin, acked int) counters {
	commits := len(setupStrategies) + acked
	c, err := in.counters()
	if err != nil {
		res.check("final state readable", false, "%v", err)
		return c
	}
	wantEps := float64(len(setupStrategies)) * setupEps
	for i := 0; i < acked; i++ {
		wantEps += writeEps
	}
	res.check("consumed = sum of acked eps", math.Abs(c.consumed-wantEps) <= 1e-9*wantEps, "consumed %.10g, acked %.10g", c.consumed, wantEps)
	res.check("generation = commits", c.generation == uint64(commits), "generation %d, commits %d", c.generation, commits)
	res.check("audit_size = commits", c.auditSize == uint64(commits), "audit_size %d, commits %d", c.auditSize, commits)

	var ck audit.Checkpoint
	err = getJSON(in.ctl, in.base+"/v1/datasets/"+datasetName+"/audit/checkpoint", &ck)
	if err == nil {
		var root [audit.HashSize]byte
		root, err = audit.ParseHash(ck.Root)
		sig, e1 := hex.DecodeString(ck.Signature)
		pub, e2 := hex.DecodeString(ck.PublicKey)
		switch {
		case err != nil, e1 != nil, e2 != nil:
			err = fmt.Errorf("undecodable checkpoint (%v %v %v)", err, e1, e2)
		case ck.Size != uint64(commits):
			err = fmt.Errorf("checkpoint size %d, commits %d", ck.Size, commits)
		default:
			err = audit.VerifyCheckpoint(pub, datasetName, ck.Size, root, sig)
		}
	}
	res.check("signed audit checkpoint verifies", err == nil, "err %v", err)

	ref := firstQuery(spec, seed)
	data, err := in.post(in.queryURL(), ref.body, http.StatusOK)
	var rep queryReply
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	want, terr := tw.answers(ref.ranges)
	switch {
	case err != nil || terr != nil:
		res.check("final query matches twin", false, "err %v / twin %v", err, terr)
	default:
		diff := relDiff(rep.Answers, want)
		res.check("final query matches twin", diff <= solverTolerance, "relative difference %.3g after %d commits, tolerance %.0e", diff, commits, solverTolerance)
	}
	return c
}

// premiseGuards assert what makes each workload that workload, so a
// later change cannot silently turn a miss workload into a hit workload.
func premiseGuards(res *Result, spec workloadSpec, m *servedMeasurement) {
	share, lookups := m.hitShare()
	switch {
	case spec.open:
		writes := m.timed.w.acked
		refreshes := m.aftr.refreshes - m.before.refreshes
		res.check("premise: a refresh per write", float64(refreshes) >= 0.9*float64(writes), "%d refreshes for %d writes", refreshes, writes)
		late := summarize(nsToMs(m.timed.lateNs))
		res.check("premise: generator on schedule", late.P90 < latenessLimitMs, "lateness p90 %.3f ms (limit %.1f ms), p99 %.3f ms", late.P90, latenessLimitMs, late.P99)
	case spec.pooled:
		res.check("premise: cache hit share >= 0.98", share >= 0.98, "hit share %.4f over %.0f lookups", share, lookups)
	default:
		res.check("premise: cache hit share <= 0.01", share <= 0.01, "hit share %.4f over %.0f lookups", share, lookups)
		solves := m.aftr.panelSolves - m.before.panelSolves
		res.check("premise: no panel solve", solves == 0, "%d panel solves in the timed phase", solves)
	}
	if spec.routed {
		res.check("premise: both replicas serve >= 30%", m.replicaShare() >= 0.30, "reads by backend %v", m.timed.q.servedBy)
	}
}

// hitShare is the answer cache's hits over lookups in the timed phase,
// from the servers' own counters.
func (m *servedMeasurement) hitShare() (share, lookups float64) {
	hits := float64(m.aftr.hits - m.before.hits)
	lookups = hits + float64(m.aftr.misses-m.before.misses)
	if lookups == 0 {
		return 0, 0
	}
	return hits / lookups, lookups
}

// replicaShare is the less-used backend's share of the timed phase's
// reads (by X-Ektelo-Served-By), 0 unless both backends served some.
func (m *servedMeasurement) replicaShare() float64 {
	total, least := 0, 0
	for _, n := range m.timed.q.servedBy {
		if total == 0 || n < least {
			least = n
		}
		total += n
	}
	if len(m.timed.q.servedBy) < 2 {
		return 0
	}
	return float64(least) / float64(total)
}

// report turns the measurement into the end-to-end metrics and the
// counters that need no tracing.
func (m *servedMeasurement) report(res *Result, spec workloadSpec) {
	q := summarize(nsToMs(m.timed.q.latNs))
	res.e2e("query_p50_ms", q.Median, &q)
	res.e2e("query_tail_ms", q.at(spec.tail), &q)
	res.e2e("query_qps", float64(len(m.timed.q.latNs))/m.timed.seconds, nil)
	w := m.timed.w
	if m.probe != nil {
		w = m.probe
	}
	wd := summarize(nsToMs(w.latNs))
	res.e2e("write_p50_ms", wd.Median, &wd)
	m.reportCounters(res, spec, q, wd)
}
