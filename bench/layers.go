package main

import "sort"

// perLayer lists every per-layer metric, one module per prefix. A
// traced run reports all of them on every workload; a layer that is
// not on a workload's path reports 0 there. Counters come from the
// program's own public counts read over HTTP; times come from spans
// the harness records around calls into each layer (trace.go).
var perLayer = append([]metricDef{
	// internal/cluster, query.routed only.
	{Name: "cluster.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.repl_catchup_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.replica_share", Unit: "ratio", Better: "higher"},
	// internal/serve.
	{Name: "serve.http_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_clients", Unit: "count", Better: "higher"},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.refreshes", Unit: "count", Better: "lower"},
	{Name: "serve.panel_solves", Unit: "count", Better: "lower"},
	{Name: "serve.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.commit_other_ms", Unit: "ms", Better: "lower"},
	// internal/solver and internal/mat, called directly at the workload's shapes.
	{Name: "solver.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.iterations", Unit: "count", Better: "lower"},
	{Name: "mat.matmat_ms", Unit: "ms", Better: "lower"},
	{Name: "mat.flops", Unit: "flop", Better: "lower"},
	// The commit path.
	{Name: "kernel.measure_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "audit.append_ms", Unit: "ms", Better: "lower"},
	// The served processes, from /proc.
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	// The traced run itself, and the generator.
	{Name: "trace.client_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	// End-to-end detail too unsteady to carry a bound.
	{Name: "write.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "query.first_quarter_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query.last_quarter_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_pass_s", Unit: "s", Better: "lower"},
}, planMetricDefs()...)

// commitFsyncs is how many fsyncs one commit costs under -fsync always:
// the measurement record and the audit checkpoint record are separate
// appends (serve.commitBlocksLocked). Computed from the code path, not
// observed.
const commitFsyncs = 2

// checkpointEvery is ektelo-serve's default -checkpoint-every.
const checkpointEvery = 64

// reportCounters records the per-layer metrics that need no spans.
func (m *servedMeasurement) reportCounters(res *Result, spec workloadSpec, q, w Dist) {
	ops := len(m.timed.q.latNs) + len(m.timed.w.latNs)
	if share, lookups := m.hitShare(); lookups > 0 {
		res.layer("serve.cache_hit_share", share, nil)
	}
	res.layer("serve.refreshes", float64(m.aftr.refreshes-m.before.refreshes), nil)
	res.layer("serve.panel_solves", float64(m.aftr.panelSolves-m.before.panelSolves), nil)
	if n := len(m.timed.q.latNs); n > 0 {
		res.layer("serve.batch_clients", float64(m.timed.q.batchSum)/float64(n), nil)
	}
	res.layer("solver.iterations", float64(m.timed.q.iterMax), nil)
	// Commits of the timed phase and of the write probe after it.
	if commits := m.final.generation - m.before.generation; commits > 0 {
		res.layer("wal.bytes_per_commit", float64(m.final.walOffset-m.before.walOffset)/float64(commits), nil)
		res.layer("wal.fsyncs", float64(commits*commitFsyncs), nil)
		res.layer("wal.checkpoints", float64(m.final.generation/checkpointEvery-m.before.generation/checkpointEvery), nil)
	}
	if ops > 0 {
		cpu := m.aftr.use.cpu - m.before.use.cpu
		res.layer("proc.cpu_ms_per_op", float64(cpu)/1e6/float64(ops), nil)
	}
	res.layer("proc.rss_peak_mb", float64(m.aftr.use.rssPeakB)/(1<<20), nil)
	if spec.routed {
		res.layer("cluster.replica_share", m.replicaShare(), nil)
		res.layer("cluster.repl_catchup_ms", m.catchupMs, nil)
	}
	if len(m.timed.lateNs) > 0 {
		late := summarize(nsToMs(m.timed.lateNs))
		res.layer("gen.lateness_p99_ms", late.P99, &late)
	}
	if p := tailPercentile(w.N); p > 0 {
		res.layer("write.tail_ms", w.at(p), &w)
	}
	first, last := quarterMedians(m.timed.q.atNs, m.timed.q.latNs)
	res.layer("query.first_quarter_p50_ms", first, nil)
	res.layer("query.last_quarter_p50_ms", last, nil)
}

// quarterMedians are the median latencies of the ops issued in the
// first and in the last quarter of the phase: on mixed.rw the log grows
// through the run, and a single median would hide the drift.
func quarterMedians(atNs, latNs []int64) (first, last float64) {
	if len(atNs) == 0 {
		return 0, 0
	}
	var end int64
	for _, t := range atNs {
		end = max(end, t)
	}
	var a, b []float64
	for i, t := range atNs {
		switch {
		case t <= end/4:
			a = append(a, float64(latNs[i])/1e6)
		case t >= end-end/4:
			b = append(b, float64(latNs[i])/1e6)
		}
	}
	sort.Float64s(a)
	sort.Float64s(b)
	return percentile(a, 0.5), percentile(b, 0.5)
}

// zeroMissingLayers gives every layer the workload never entered the
// value 0, so a traced run reports every per-layer metric.
func zeroMissingLayers(res *Result) {
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.Name]; !ok {
			res.PerLayer[d.Name] = Metric{Value: 0, Unit: d.Unit, Note: "layer not on this workload's path"}
		}
	}
}
