package main

import "time"

// The fixed shape of every workload. Nothing here is read from the
// command line: a result is comparable with another only because these
// constants are the same in both, so changing one re-baselines the
// benchmark (bench/BASELINE.json) and is its own change.
const (
	datasetName = "bench"
	dataKind    = "piecewise"
	dataScale   = 1e6 // records in the synthetic histogram
	epsTotal    = 1e6 // never exhausted: no workload may fail on budget
	setupEps    = 1.0 // per set-up measurement
	writeEps    = 0.01

	setupRepeats  = 3                // set-ups per run; setup_s is their median
	warmupSeconds = 1.0              // untimed, before the timed phase
	checkEvery    = 50               // 1 in this many query responses is compared with the twin
	probeWrites   = 12               // commits of the post-phase write probe (query.* workloads)
	clients       = 2                // closed-loop connections; at most nproc
	poolSize      = 64               // distinct workloads of query.hot (fits the 256-entry cache)
	hotRanges     = 8                // ranges per query.hot / mixed.rw request
	coldRanges    = 512              // ranges per query.cold request
	readyTimeout  = 20 * time.Second // child start-up and replica catch-up

	// mixed.rw open-loop schedule, frozen on the seed commit: the writer
	// commits every writePeriod, the reader queries readsPerWrite times
	// per write period, offset by half a read period so the two never
	// fall due together. Four commits a second keeps the log under 50
	// blocks at the end of an 11 s run: on the seed commit a warm refresh
	// at domain 1024 costs about 1 ms per block up to there, and beyond it
	// turns erratic (0.1 to 0.7 s), which no fixed rate survives.
	writePeriod   = 250 * time.Millisecond
	readsPerWrite = 4
	// Generator lateness (send time minus the later of the due time and
	// the previous reply on that connection) must stay under this at
	// p90, or the generator and not the program set the latencies. Its
	// p99 is reported but not guarded: when a send falls due inside a
	// refresh, the server's solve holds both CPUs and the generator waits
	// a scheduler slice (1 to 2 ms here), which says nothing about the
	// generator.
	latenessLimitMs = 1.0
)

// mixedWrites is the cycle of mixed.rw's write stream: three strategies
// of different row counts and sparsity. probeWritesCycle is the write
// probe's: at domain 4096 a commit costs 0.1 to 0.5 s on the seed commit
// (canonicalising and encoding the block dominate), so the probe keeps
// to the cheapest strategy and to a dozen commits.
var (
	mixedWrites      = []string{"h2", "identity", "hb"}
	probeWritesCycle = []string{"identity"}
)

// setupStrategies are measured once each in set-up, in this order, so
// every served workload starts from the same two-block log.
var setupStrategies = []string{"hb", "identity"}

type workloadSpec struct {
	name   string
	why    string // one line, copied into BENCHMARK.json
	domain int
	routed bool // through ektelo-router in front of two backends
	open   bool // open-loop read/write schedule instead of closed-loop reads
	// ranges per request and whether requests repeat (drawn from a pool).
	ranges int
	pooled bool
	// writes is the strategy cycle of the workload's write stream.
	writes []string
	// tail is the percentile query_tail_ms reports for this workload: the
	// highest of p99/p95/p90 with at least ten samples beyond it that
	// also repeated within its bound on the seed commit (BASELINE.json).
	tail float64
}

var workloads = []workloadSpec{
	{
		name: "query.hot", domain: 4096, ranges: hotRanges, pooled: true, writes: probeWritesCycle, tail: 0.99,
		why: "64 repeated 8-range workloads fit the answer cache: HTTP/JSON and the batch window are the whole request, solver and MatMat do nothing",
	},
	{
		name: "query.cold", domain: 4096, ranges: coldRanges, writes: probeWritesCycle, tail: 0.99,
		why: "never-repeated 512-range workloads bypass the cache: the only served workload that pays MatMat over fresh RangeQueries, fingerprinting and a 512-answer JSON encode",
	},
	{
		name: "mixed.rw", domain: 1024, ranges: hotRanges, pooled: true, open: true, writes: mixedWrites, tail: 0.90,
		why: "open-loop writer plus 4x reader: each commit (charge, noise, WAL fsync, audit leaf) invalidates the cache and the next read pays a warm refresh under the dataset lock",
	},
	{
		name: "query.routed", domain: 4096, ranges: hotRanges, pooled: true, routed: true, writes: probeWritesCycle, tail: 0.99,
		why: "query.hot's byte-identical requests through ektelo-router and two replicas: the only workload where internal/cluster does most of the work",
	},
	{
		name: "plan.lib", tail: 0.90,
		why: "no HTTP: seven registry plans through plans.GraphByName and Graph.Execute on fresh kernels, the paper's own usage; serve, wal and cluster do nothing",
	},
}

func specByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md fixes what "query" and "write" mean on
// plan.lib, where no socket is involved. A bound is at least twice the
// widest run-to-run spread (inter-quartile distance over median, ten
// seeds) any workload showed on the seed commit — see BASELINE.json and
// README.md — because the sandbox itself drifts by some 10 % over
// minutes, which no amount of sampling inside a run removes.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}
