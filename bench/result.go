package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported number. Dist is present when the value is a
// percentile or median of samples taken inside the run.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Dist  *Dist   `json:"dist,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// Check is one correctness check or workload-premise guard.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Env records where and how a result was measured, so that its
// latencies are read as this sandbox's and not a device's.
type Env struct {
	Commit       string              `json:"commit"`
	GoVersion    string              `json:"go_version"`
	NProc        int                 `json:"nproc"`
	GOMAXPROCS   int                 `json:"gomaxprocs_generator"`
	ChildProcs   int                 `json:"gomaxprocs_children"`
	Kernel       string              `json:"kernel"`
	ChildFlags   map[string][]string `json:"child_flags,omitempty"`
	Seed         uint64              `json:"seed"`
	Seconds      float64             `json:"timed_seconds"`
	Warmup       float64             `json:"warmup_seconds"`
	FsyncProbeMs float64             `json:"fsync_probe_ms"`
	Connections  int                 `json:"connections"`
}

// Result is everything one run produced. The last line of standard
// output is the contract's reduced form of it (see lastLine).
type Result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Env       Env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailShare float64           `json:"fail_share"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer"`
	Checks    []Check           `json:"checks"`
	Errors    []string          `json:"errors,omitempty"`
}

func newResult(workload string, traced bool) *Result {
	return &Result{
		Workload: workload, Traced: traced,
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{},
	}
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// e2e records an end-to-end metric; layer a per-layer one. The unit
// comes from the metric's definition so the two cannot disagree.
func (r *Result) e2e(name string, value float64, d *Dist) {
	r.EndToEnd[name] = Metric{Value: value, Unit: unitOf(endToEnd, name), Dist: d}
}

func (r *Result) layer(name string, value float64, d *Dist) {
	r.PerLayer[name] = Metric{Value: value, Unit: unitOf(perLayer, name), Dist: d}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not declared in spec")
}

// finish counts failed checks as failed operations (a wrong answer
// misses every latency limit) and settles Correct.
func (r *Result) finish() {
	for _, c := range r.Checks {
		if !c.OK {
			r.Failed++
			r.Attempted++
		}
	}
	if r.Attempted > 0 {
		r.FailShare = float64(r.Failed) / float64(r.Attempted)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// lastLine is the one JSON object the driver reads: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func (r *Result) lastLine() ([]byte, error) {
	defs, have := endToEnd, r.EndToEnd
	if r.Traced {
		defs, have = perLayer, r.PerLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]vu{}
	for _, d := range defs {
		m, ok := have[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = vu{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// print writes every metric by name and unit, then the checks.
func (r *Result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  timed %.1fs  traced %v\n", r.Workload, r.Env.Seed, r.Env.Seconds, r.Traced)
	fmt.Fprintf(w, "env: commit %s  %s  nproc %d  kernel %s  fsync_probe %.3f ms\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.NProc, r.Env.Kernel, r.Env.FsyncProbeMs)
	printMetrics(w, "end-to-end", r.EndToEnd)
	printMetrics(w, "per-layer", r.PerLayer)
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %-28s %s\n", verdict, c.Name, c.Detail)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  fail_share %.6f  correct %v\n", r.Attempted, r.Failed, r.FailShare, r.Correct)
}

func printMetrics(w io.Writer, title string, ms map[string]Metric) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n, m.Value, m.Unit)
		if m.Dist != nil {
			line += fmt.Sprintf(" n=%d q1=%.4g med=%.4g q3=%.4g p90=%.4g p99=%.4g", m.Dist.N, m.Dist.Q1, m.Dist.Median, m.Dist.Q3, m.Dist.P90, m.Dist.P99)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// save writes the full result as indented JSON.
func (r *Result) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// newEnv fills the parts of the environment block every workload shares.
func newEnv(opt options, stateFS string) Env {
	return Env{
		Commit:       commitID(opt),
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		ChildProcs:   runtime.NumCPU(), // children inherit no GOMAXPROCS setting: the Go default
		Kernel:       kernelRelease(),
		Seed:         opt.seed,
		Seconds:      opt.seconds,
		Warmup:       warmupSeconds,
		FsyncProbeMs: fsyncProbe(stateFS),
	}
}

// commitID is the checked-out commit when the benchmark runs inside a
// git work tree, else "unknown" (the driver's checkout is not one).
func commitID(opt options) string {
	dir := filepath.Dir(opt.out)
	for i := 0; i < 3; i++ {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if b, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
					return strings.TrimSpace(string(b))
				}
				return name
			}
			return ref
		}
		dir = filepath.Dir(dir)
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsyncProbe is the median of 100 one-block write+Sync calls on the
// filesystem the state directories live on, in milliseconds.
func fsyncProbe(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var ms []float64
	for i := 0; i < 100; i++ {
		if _, err := f.Write(block); err != nil {
			return 0
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return summarize(ms).Median
}
