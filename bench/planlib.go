package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core/plans"
	"repro/internal/core/selection"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/solver"
	"repro/internal/workload"
)

// plan.lib drives the library the way §10 of the paper does: a plan is
// built by name, run on a fresh kernel, and the analyst's workload is
// answered from the estimate it returns. No socket is involved, so the
// two user-visible operations map onto the end-to-end metrics as
//
//	write  = one pass over the plan suite (budget is spent, measurements
//	         taken, an estimate inferred) — write_p50_ms is the median pass
//	query  = answering the evaluation workload from a plan's estimate
//	         (W·x̂) — query_* are over those answers, one per plan run
//
// The suite's domains are sized so one pass is a few hundred ms on the
// seed commit: a run then holds some dozens of passes.
const (
	plan1D       = 4096 // 1-D domain
	planH, planW = 64, 64
	planScale    = 1e5
	planEps      = 0.1
	planQueries  = 20000 // ranges of the evaluation workload
	planTuned    = 256   // of which the workload-adaptive plans are tuned to the first this many
	planRounds   = 2     // MWEM rounds
	planRefSeed  = 1     // inputs of the reference pass checked against testdata/plan_err.json
	planErrRelTo = 1e-9
)

type planCase struct {
	key    string // metric-name suffix
	name   string // registry name
	twoD   bool
	kernel uint64 // fixed noise seed of the fresh kernel
}

var planSuite = []planCase{
	{key: "identity", name: "Identity", kernel: 101},
	{key: "hb", name: "Hierarchical Opt (HB)", kernel: 102},
	{key: "dawa", name: "DAWA", kernel: 103},
	{key: "mwem_d", name: "MWEM variant d", kernel: 104},
	{key: "hdmm", name: "HDMM", kernel: 105},
	{key: "adaptivegrid", name: "AdaptiveGrid", twoD: true, kernel: 106},
	{key: "hb_striped_kron", name: "HB-Striped_kron", twoD: true, kernel: 107},
}

func planMetricDefs() []metricDef {
	var out []metricDef
	for _, p := range planSuite {
		out = append(out,
			metricDef{Name: "core.plan_ms." + p.key, Unit: "ms", Better: "lower"},
			metricDef{Name: "core.plan_err." + p.key, Unit: "ratio", Better: "lower"})
	}
	return out
}

//go:embed testdata/plan_err.json
var planErrGolden []byte

// planInputs are one run's inputs. The two protected histograms and the
// workload the adaptive plans are tuned to are the deployment's and
// fixed; the evaluation workloads (the analyst's queries) follow -seed.
type planInputs struct {
	x1, x2 []float64
	w1, w2 *mat.RangeQueriesMat
	r1     []mat.Range1D
	total1 float64
	total2 float64
}

func newPlanInputs(seed uint64) *planInputs {
	in := &planInputs{
		x1: dataset.Synthetic1D(dataKind, plan1D, planScale, datasetSeed),
		x2: dataset.Grid2D(planH, planW, planScale, datasetSeed),
		r1: workload.RandomRange(plan1D, planTuned, stream(datasetSeed, 0xa0)).Ranges1D(),
	}
	in.w1 = workload.RandomRange(plan1D, planQueries, stream(seed, 0xa1))
	in.w2 = workload.RandomRange2D(planH, planW, planQueries, stream(seed, 0xa2))
	for _, v := range in.x1 {
		in.total1 += v
	}
	for _, v := range in.x2 {
		in.total2 += v
	}
	return in
}

// planRun is one plan executed once.
type planRun struct {
	planMs  float64 // GraphByName + fresh kernel + Graph.Execute
	queryMs float64 // W·x̂
	err     float64 // scaled per-query L2 error against the true answers
	sum     uint64  // hash of the estimate's bits
}

// runPlan executes one suite entry on a fresh kernel at its fixed seed.
func (in *planInputs) runPlan(p planCase) (planRun, error) {
	x, w, total := in.x1, in.w1, in.total1
	params := plans.Params{Workload: in.r1, Rounds: planRounds, Total: total, Seed: p.kernel}
	if p.twoD {
		x, w, total = in.x2, in.w2, in.total2
		params = plans.Params{Shape: []int{planH, planW}, Total: total, Seed: p.kernel}
	}
	t0 := time.Now()
	g, err := plans.GraphByName(p.name, len(x), planEps, params)
	if err != nil {
		return planRun{}, err
	}
	_, h := kernel.InitVectorSeeded(x, 10*planEps, p.kernel)
	xhat, err := g.Execute(h)
	if err != nil {
		return planRun{}, err
	}
	t1 := time.Now()
	rows, _ := w.Dims()
	ans := make([]float64, rows)
	w.MatVec(ans, xhat)
	t2 := time.Now()

	truth := make([]float64, rows)
	w.MatVec(truth, x)
	var ss float64
	for i := range ans {
		d := ans[i] - truth[i]
		ss += d * d
	}
	hsh := fnv.New64a()
	var b [8]byte
	for _, v := range xhat {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		hsh.Write(b[:])
	}
	return planRun{
		planMs:  float64(t1.Sub(t0)) / 1e6,
		queryMs: float64(t2.Sub(t1)) / 1e6,
		err:     math.Sqrt(ss/float64(rows)) / total,
		sum:     hsh.Sum64(),
	}, nil
}

// pass runs the whole suite once.
func (in *planInputs) pass() ([]planRun, float64, error) {
	out := make([]planRun, len(planSuite))
	t0 := time.Now()
	for i, p := range planSuite {
		r, err := in.runPlan(p)
		if err != nil {
			return nil, 0, fmt.Errorf("plan %s: %w", p.name, err)
		}
		out[i] = r
	}
	return out, time.Since(t0).Seconds(), nil
}

// referencePass runs the suite on the fixed reference inputs and
// compares each plan's error with the checked-in value. It is the
// untimed first pass of every set-up, so a change to what the library
// computes fails every run, whatever -seed it was given.
func referencePass(res *Result, update string) error {
	runs, _, err := newPlanInputs(planRefSeed).pass()
	if err != nil {
		return err
	}
	got := map[string]float64{}
	for i, p := range planSuite {
		got[p.key] = runs[i].err
	}
	if update != "" {
		data, _ := json.MarshalIndent(got, "", "  ")
		return os.WriteFile(update, append(data, '\n'), 0o644)
	}
	if res == nil {
		return nil
	}
	want := map[string]float64{}
	if err := json.Unmarshal(planErrGolden, &want); err != nil {
		return fmt.Errorf("testdata/plan_err.json: %w", err)
	}
	for _, p := range planSuite {
		w, g := want[p.key], got[p.key]
		ok := w > 0 && math.Abs(g-w) <= planErrRelTo*w
		res.check("plan_err "+p.key+" equals testdata", ok, "got %.12g, checked in %.12g", g, w)
	}
	return nil
}

// runPlanLib measures plan.lib. Spans around each plan are recorded in
// both kinds of run; the traced run also calls the layers beneath a
// plan directly and writes the spans out.
func runPlanLib(spec workloadSpec, opt options, traced bool) (*Result, error) {
	res := newResult(spec.name, traced)
	res.Env = newEnv(opt, opt.scratch)

	// Set-up: generate the inputs and run the checked reference pass
	// (first use fills the engine's worker crew and buffer pools).
	var setups []float64
	var in *planInputs
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		in = newPlanInputs(opt.seed)
		var checks *Result
		if i == 0 {
			checks = res
		}
		if err := referencePass(checks, ""); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sd := summarize(setups)
	res.e2e("setup_s", sd.Median, &sd)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var passMs, queryMs []float64
	planMs := make([][]float64, len(planSuite))
	var first []planRun
	nondeterministic := 0
	start := time.Now()
	deadline := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	for pass := 0; time.Now().Before(deadline); pass++ {
		t0 := time.Now()
		runs, s, err := in.pass()
		if err != nil {
			return nil, err
		}
		passMs = append(passMs, s*1e3)
		at := t0
		for i, r := range runs {
			planMs[i] = append(planMs[i], r.planMs)
			queryMs = append(queryMs, r.queryMs)
			if tr != nil {
				end := at.Add(time.Duration((r.planMs + r.queryMs) * 1e6))
				tr.add("core.plan."+planSuite[i].key, "core.pass", uint64(pass), at, end)
				at = end
			}
			if first != nil && (r.sum != first[i].sum || r.err != first[i].err) {
				nondeterministic++
			}
		}
		if tr != nil {
			tr.add("core.pass", "", uint64(pass), t0, t0.Add(time.Duration(s*1e9)))
		}
		if first == nil {
			first = runs
		}
	}
	elapsed := time.Since(start).Seconds()
	res.Env.Seconds = elapsed
	res.Env.Connections = 0
	res.Attempted = 2 * len(queryMs) // a plan run and a workload answer per entry
	res.Failed = nondeterministic
	res.check("every pass reproduces the first", nondeterministic == 0 && len(passMs) > 1,
		"%d of %d plan runs differ from pass 0 (fresh kernels at fixed seeds)", nondeterministic, len(queryMs))

	pd := summarize(passMs)
	res.e2e("write_p50_ms", pd.Median, &pd)
	qd := summarize(queryMs)
	res.e2e("query_p50_ms", qd.Median, &qd)
	res.e2e("query_tail_ms", qd.at(spec.tail), &qd)
	if beyond := samplesBeyond(qd.N, spec.tail); beyond < 10 && !traced {
		res.check("tail percentile has 10 samples beyond", false, "p%.0f of %d samples has %d beyond", spec.tail*100, qd.N, beyond)
	}
	res.e2e("query_qps", float64(len(queryMs))/elapsed, nil)

	res.layer("core.plan_pass_s", pd.Median/1e3, nil)
	for i, p := range planSuite {
		d := summarize(planMs[i])
		res.layer("core.plan_ms."+p.key, d.Median, &d)
		res.layer("core.plan_err."+p.key, first[i].err, nil)
	}
	if traced {
		tracePlanLayers(res, in, pd.Median)
		zeroMissingLayers(res)
		if err := tr.write(filepath.Join(opt.out, "trace-"+spec.name+".json")); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// tracePlanLayers calls the layers a plan is made of directly, at the
// suite's 1-D shape: a kernel measurement, the scalar least-squares
// solve the LS operator runs, and the workload product.
func tracePlanLayers(res *Result, in *planInputs, passMs float64) {
	strategy := selection.HB(plan1D)
	var measure, solve, matvec []float64
	iters := 0
	for i := 0; i < 30; i++ {
		_, h := kernel.InitVectorSeeded(in.x1, 10*planEps, 7)
		t0 := time.Now()
		y, _, err := h.VectorLaplace(strategy, planEps)
		measure = append(measure, float64(time.Since(t0))/1e6)
		if err != nil {
			res.check("kernel.VectorLaplace", false, "%v", err)
			return
		}
		t0 = time.Now()
		r := solver.LSMR(strategy, y, solver.Options{})
		solve = append(solve, float64(time.Since(t0))/1e6)
		iters = r.Iterations
		rows, _ := in.w1.Dims()
		ans := make([]float64, rows)
		t0 = time.Now()
		in.w1.MatVec(ans, r.X)
		matvec = append(matvec, float64(time.Since(t0))/1e6)
	}
	md, sd, vd := summarize(measure), summarize(solve), summarize(matvec)
	res.layer("kernel.measure_ms", md.Median, &md)
	res.layer("solver.solve_ms", sd.Median, &sd)
	res.layer("solver.iterations", float64(iters), nil)
	res.layer("mat.matmat_ms", vd.Median, &vd)
	// A range query over a prefix-sum table costs two reads and a
	// subtraction per answer, after one pass over the estimate.
	res.PerLayer["mat.flops"] = Metric{Value: float64(plan1D + 2*planQueries), Unit: "flop", Note: "computed from shapes"}
	res.layer("trace.client_ms", passMs, nil)
	// Recording a span here is one slice append per plan run; the plans
	// themselves are untouched, so the traced and untraced pass are the
	// same code and the overhead is the recorder's own cost.
	res.layer("trace.overhead_ms", spanCostMs()*float64(len(planSuite)+1), nil)
}
