package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"text/tabwriter"
)

// runSeconds is BENCHMARK.json's run_seconds: the timed phase of every
// run the driver makes. With five workloads the driver makes 114 runs
// inside 3420 s; a run here takes 11 to 19 s in all, build check included.
const runSeconds = 10

// manifest is BENCHMARK.json. The file at the repository root is this
// value printed by `bench -manifest`; a self-test keeps the two equal.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"` // no bounds: the field is omitted
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{Name: w.name, Why: w.why})
	}
	return m
}

func printManifest(w io.Writer) error {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// Series is one end-to-end metric on one workload across the runs of a
// -repeat: the per-run values, their median and quartiles (as Python's
// statistics.quantiles gives them), and the inter-quartile spread as a
// share of the median — what the acceptance rule looks at.
type Series struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

func newSeries(def metricDef, values []float64) Series {
	q1, q2, q3 := quartiles(values)
	return Series{Unit: def.Unit, Better: def.Better, Bound: def.Bound, Values: values, Median: q2, Q1: q1, Q3: q3, Spread: spread(values)}
}

// WorkloadBaseline is one workload's part of a -repeat file.
type WorkloadBaseline struct {
	TailPercentile float64            `json:"tail_percentile"`
	Runs           int                `json:"runs"`
	FailShare      float64            `json:"fail_share"`
	EndToEnd       map[string]Series  `json:"end_to_end"`
	PerLayer       map[string]float64 `json:"per_layer,omitempty"` // one traced run
}

// Baseline is what -repeat writes and -compare reads.
type Baseline struct {
	Env       Env                         `json:"env"`
	Sets      int                         `json:"sets"`
	FirstSeed uint64                      `json:"first_seed"`
	Seconds   float64                     `json:"seconds"`
	Workloads map[string]WorkloadBaseline `json:"workloads"`
}

// repeatRuns runs n sets back to back. Each run is a fresh process, as
// the driver's runs are, with seeds seed, seed+1, ... so the spread it
// reports is the one the acceptance rule will see. One traced run per
// workload follows, for the per-layer picture.
func repeatRuns(opt options, n int, outFile string) error {
	if outFile == "" {
		outFile = filepath.Join(opt.out, "repeat.json")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	specs := workloads
	if opt.workload != "" {
		s, ok := specByName(opt.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", opt.workload)
		}
		specs = []workloadSpec{s}
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	one := func(spec workloadSpec, seed uint64, trace int) (*Result, error) {
		tmp := filepath.Join(opt.out, "repeat-run.json")
		defer os.Remove(tmp)
		cmd := exec.Command(self,
			"-workload", spec.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(opt.seconds), "-trace", fmt.Sprint(trace),
			"-bin", opt.bin, "-scratch", opt.scratch, "-out", opt.out, "-result", tmp)
		cmd.Stderr = os.Stderr
		if out, err := cmd.Output(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w\n%s", spec.name, seed, err, out)
		}
		data, err := os.ReadFile(tmp)
		if err != nil {
			return nil, err
		}
		var r Result
		return &r, json.Unmarshal(data, &r)
	}
	base := Baseline{Sets: n, FirstSeed: opt.seed, Seconds: opt.seconds, Workloads: map[string]WorkloadBaseline{}}
	values := map[string]map[string][]float64{}
	attempted, failed := map[string]int{}, map[string]int{}
	for set := 0; set < n; set++ {
		for _, spec := range specs {
			r, err := one(spec, opt.seed+uint64(set), 0)
			if err != nil {
				return err
			}
			base.Env = r.Env
			if values[spec.name] == nil {
				values[spec.name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[spec.name][d.Name] = append(values[spec.name][d.Name], r.EndToEnd[d.Name].Value)
			}
			attempted[spec.name] += r.Attempted
			failed[spec.name] += r.Failed
			fmt.Printf("set %d/%d %-13s q_p50 %.4g ms  tail %.4g ms  qps %.5g  w_p50 %.4g ms  setup %.3g s  failed %d\n",
				set+1, n, spec.name, r.EndToEnd["query_p50_ms"].Value, r.EndToEnd["query_tail_ms"].Value,
				r.EndToEnd["query_qps"].Value, r.EndToEnd["write_p50_ms"].Value, r.EndToEnd["setup_s"].Value, r.Failed)
		}
	}
	for _, spec := range specs {
		wb := WorkloadBaseline{TailPercentile: spec.tail, Runs: n, EndToEnd: map[string]Series{}, PerLayer: map[string]float64{}}
		if attempted[spec.name] > 0 {
			wb.FailShare = float64(failed[spec.name]) / float64(attempted[spec.name])
		}
		for _, d := range endToEnd {
			wb.EndToEnd[d.Name] = newSeries(d, values[spec.name][d.Name])
		}
		r, err := one(spec, opt.seed, 1)
		if err != nil {
			return err
		}
		for k, v := range r.PerLayer {
			wb.PerLayer[k] = v.Value
		}
		base.Workloads[spec.name] = wb
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printBaseline(os.Stdout, base)
	fmt.Printf("wrote %s\n", outFile)
	return nil
}

func printBaseline(w io.Writer, b Baseline) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound\tunit")
	for _, spec := range workloads {
		wb, ok := b.Workloads[spec.name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			s := wb.EndToEnd[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%.3f\t%.2f\t%s\n", spec.name, d.Name, s.Median, s.Q1, s.Q3, s.Spread, s.Bound, s.Unit)
		}
	}
	tw.Flush()
}

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges one (metric, workload) pair. The new median counts as
// worse when it is worse than the old by more than the metric's bound,
// as better when it is better by more than the run-to-run spread, and
// as unresolved — not as unchanged — when either side's spread is wider
// than the bound, because then the bound cannot be told from noise.
func verdict(old, new Series) (string, float64) {
	if old.Median == 0 {
		return verdictUnresolved, 0
	}
	ratio := new.Median / old.Median
	worseBy := ratio - 1
	if old.Better == "higher" {
		worseBy = 1 - ratio
	}
	noise := max(old.Spread, new.Spread)
	switch {
	case noise > old.Bound:
		return verdictUnresolved, ratio
	case worseBy > old.Bound:
		return verdictWorse, ratio
	case worseBy < -noise:
		return verdictBetter, ratio
	}
	return verdictSame, ratio
}

// compareFiles prints one row per (end-to-end metric, workload) and
// reports whether any is worse or any workload's fail_share rose.
func compareFiles(w io.Writer, oldPath, newPath string) (worse bool, err error) {
	load := func(p string) (Baseline, error) {
		var b Baseline
		data, err := os.ReadFile(p)
		if err != nil {
			return b, err
		}
		return b, json.Unmarshal(data, &b)
	}
	old, err := load(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := load(newPath)
	if err != nil {
		return false, err
	}
	return compareBaselines(w, old, cur), nil
}

func compareBaselines(w io.Writer, old, cur Baseline) (worse bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1,q3]\tnew median [q1,q3]\tnew/old\tbound\tverdict")
	for _, spec := range workloads {
		o, ok1 := old.Workloads[spec.name]
		n, ok2 := cur.Workloads[spec.name]
		if !ok1 || !ok2 {
			continue
		}
		for _, d := range endToEnd {
			so, sn := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			v, ratio := verdict(so, sn)
			worse = worse || v == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g,%.5g]\t%.5g [%.5g,%.5g]\t%.3f (base %.5g %s)\t%.2f\t%s\n",
				spec.name, d.Name, so.Median, so.Q1, so.Q3, sn.Median, sn.Q1, sn.Q3, ratio, so.Median, so.Unit, so.Bound, v)
		}
		v := verdictSame
		if n.FailShare > o.FailShare {
			v, worse = verdictWorse, true
		}
		fmt.Fprintf(tw, "%s\tfail_share\t%.6f\t%.6f\t\t0\t%s\n", spec.name, o.FailShare, n.FailShare, v)
	}
	tw.Flush()
	return worse
}
