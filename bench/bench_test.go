package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// These are the harness's own fast checks: no sockets, no children.

// firstBodies renders the first n request bodies of one client.
func firstBodies(spec workloadSpec, seed uint64, client, n int) []byte {
	src := newQuerySource(spec, seed, client)
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, src.next().body...)
		out = append(out, '\n')
	}
	return out
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, spec := range workloads {
		if spec.domain == 0 {
			continue // plan.lib has no request stream
		}
		for client := 0; client < clients; client++ {
			a := firstBodies(spec, 7, client, 200)
			if b := firstBodies(spec, 7, client, 200); !bytes.Equal(a, b) {
				t.Errorf("%s client %d: same seed gave different bytes", spec.name, client)
			}
			if b := firstBodies(spec, 8, client, 200); bytes.Equal(a, b) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same bytes", spec.name, client)
			}
		}
		if a, b := firstBodies(spec, 7, 0, 200), firstBodies(spec, 7, 1, 200); bytes.Equal(a, b) {
			t.Errorf("%s: both clients send the same stream", spec.name)
		}
	}
	hot, _ := specByName("query.hot")
	routed, _ := specByName("query.routed")
	if !bytes.Equal(firstBodies(hot, 3, 1, 500), firstBodies(routed, 3, 1, 500)) {
		t.Error("query.routed's stream is not byte-identical to query.hot's")
	}
	cold, _ := specByName("query.cold")
	seen := map[string]bool{}
	for _, body := range bytes.Split(firstBodies(cold, 3, 0, 300), []byte{'\n'}) {
		if seen[string(body)] && len(body) > 0 {
			t.Fatal("query.cold repeated a request")
		}
		seen[string(body)] = true
	}
	var req struct {
		Ranges [][2]int `json:"ranges"`
	}
	if err := json.Unmarshal(newQuerySource(cold, 1, 0).next().body, &req); err != nil || len(req.Ranges) != coldRanges {
		t.Fatalf("query.cold body: %v, %d ranges", err, len(req.Ranges))
	}
}

func TestPercentilesAndTailRule(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := samplesBeyond(1000, 0.99); got != 10 {
		t.Errorf("samplesBeyond(1000, p99) = %d, want 10", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	d := summarize([]float64{3, 1, 2})
	if d.N != 3 || d.Min != 1 || d.Median != 2 || d.Max != 3 {
		t.Errorf("summarize = %+v", d)
	}
}

// fakeClock advances only when told to; oversleep models a late timer.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.oversleep) }

func TestOpenLoopTimesFromDueTimeAndReportsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	const period, service = 10 * time.Millisecond, 25 * time.Millisecond

	// A server slower than the schedule: op i is due at i*period, but the
	// connection frees only every `service`. Latency counted from the due
	// time grows by service-period per op; the generator itself is never
	// late, because each op goes out the moment the previous reply lands.
	clk := &fakeClock{now: start}
	var lat []time.Duration
	st := openLoop(clk, start, 0, period, 5, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * period); !due.Equal(want) {
			t.Errorf("op %d due %v, want %v", i, due, want)
		}
		clk.now = clk.now.Add(service)
		lat = append(lat, clk.now.Sub(due))
	})
	for i, l := range lat {
		if want := service + time.Duration(i)*(service-period); l != want {
			t.Errorf("op %d latency %v, want %v (timed from its due time)", i, l, want)
		}
	}
	for i, l := range st.lateNs {
		if l != 0 {
			t.Errorf("op %d lateness %d ns, want 0: waiting behind a reply is not the generator's", i, l)
		}
	}

	// A fast server and a timer that fires 300 µs late: every op after
	// the first is sent 300 µs after its due time, and that is reported.
	clk = &fakeClock{now: start, oversleep: 300 * time.Microsecond}
	st = openLoop(clk, start, 0, period, 4, func(int, time.Time) { clk.now = clk.now.Add(time.Millisecond) })
	for i, l := range st.lateNs[1:] {
		if time.Duration(l) != 300*time.Microsecond {
			t.Errorf("op %d lateness %v, want 300µs", i+1, time.Duration(l))
		}
	}

	if got := opsDue(time.Second, 0, 250*time.Millisecond); got != 4 {
		t.Errorf("opsDue(1s, 0, 250ms) = %d, want 4 (due at 0, 250, 500, 750)", got)
	}
	if got := opsDue(time.Second, 31250*time.Microsecond, 62500*time.Microsecond); got != 16 {
		t.Errorf("opsDue(1s, 31.25ms, 62.5ms) = %d, want 16", got)
	}
}

func TestSelfTimesSumToTheClientSpan(t *testing.T) {
	at := func(ms int) int64 { return int64(ms) * 1e6 }
	spans := []Span{
		// op 1: a routed miss, replayed down to mat.
		{Name: spanClient, Op: 1, Start: at(0), End: at(100)},
		{Name: spanRouter, Parent: spanClient, Op: 1, Start: at(10), End: at(90)},
		{Name: spanHandler, Parent: spanRouter, Op: 1, Start: at(20), End: at(80)},
		{Name: spanQuery, Parent: spanHandler, Op: 1, Start: at(500), End: at(540)},
		{Name: spanWait, Parent: spanQuery, Op: 1, Start: at(600), End: at(610)},
		{Name: spanMatMat, Parent: spanQuery, Op: 1, Start: at(700), End: at(725)},
		// op 2: a write whose replay ran longer than the real handler.
		{Name: spanClient, Op: 2, Start: at(0), End: at(30)},
		{Name: spanHandler, Parent: spanClient, Op: 2, Start: at(5), End: at(25)},
		{Name: spanMeasure, Parent: spanHandler, Op: 2, Start: at(0), End: at(22)},
		{Name: spanWAL, Parent: spanMeasure, Op: 2, Start: at(0), End: at(9)},
		// op 3: only real spans (not sampled for replay).
		{Name: spanClient, Op: 3, Start: at(0), End: at(7)},
		{Name: spanHandler, Parent: spanClient, Op: 3, Start: at(1), End: at(5)},
		// op 4: a child whose parent is missing.
		{Name: spanClient, Op: 4, Start: at(0), End: at(7)},
		{Name: spanQuery, Parent: spanHandler, Op: 4, Start: at(1), End: at(5)},
	}
	selfs, broken := selfTimes(spans)
	if len(broken) != 1 || broken[0] != 4 {
		t.Errorf("broken ops %v, want [4]", broken)
	}
	want := map[uint64]map[string]int64{
		1: {spanClient: at(20), spanRouter: at(20), spanHandler: at(20), spanQuery: at(5), spanWait: at(10), spanMatMat: at(25)},
		2: {spanClient: at(10), spanHandler: at(-2), spanMeasure: at(13), spanWAL: at(9)},
		3: {spanClient: at(3), spanHandler: at(4)},
	}
	roots := map[uint64]int64{1: at(100), 2: at(30), 3: at(7)}
	for op, w := range want {
		var sum int64
		for name, v := range w {
			if selfs[op][name] != v {
				t.Errorf("op %d self[%s] = %d, want %d", op, name, selfs[op][name], v)
			}
			sum += selfs[op][name]
		}
		if len(selfs[op]) != len(w) || sum != roots[op] {
			t.Errorf("op %d: selfs %v sum to %d, want the client span %d", op, selfs[op], sum, roots[op])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	around := func(def metricDef, mid, rel float64) Series {
		var v []float64
		for i := -5; i <= 5; i++ {
			v = append(v, mid*(1+rel*float64(i)/5))
		}
		return newSeries(def, v)
	}
	for _, c := range []struct {
		name     string
		old, new Series
		want     string
	}{
		{"slower past the bound", around(lower, 1, 0.02), around(lower, 1.15, 0.02), verdictWorse},
		{"slower inside the bound", around(lower, 1, 0.02), around(lower, 1.05, 0.02), verdictSame},
		{"faster past the noise", around(lower, 1, 0.02), around(lower, 0.9, 0.02), verdictBetter},
		{"faster inside the noise", around(lower, 1, 0.04), around(lower, 0.98, 0.04), verdictSame},
		{"too noisy to tell", around(lower, 1, 0.2), around(lower, 1.5, 0.02), verdictUnresolved},
		{"throughput fell", around(higher, 1000, 0.02), around(higher, 850, 0.02), verdictWorse},
		{"throughput rose", around(higher, 1000, 0.02), around(higher, 1150, 0.02), verdictBetter},
	} {
		if got, _ := verdict(c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(p50 float64, fail float64) Baseline {
		wb := WorkloadBaseline{FailShare: fail, EndToEnd: map[string]Series{}}
		for _, d := range endToEnd {
			wb.EndToEnd[d.Name] = around(d, 1, 0.01)
		}
		wb.EndToEnd["query_p50_ms"] = around(endToEnd[1], p50, 0.01)
		return Baseline{Workloads: map[string]WorkloadBaseline{"query.hot": wb}}
	}
	var out bytes.Buffer
	if compareBaselines(&out, mk(1, 0), mk(1.01, 0)) {
		t.Errorf("equal baselines compared as worse:\n%s", out.String())
	}
	if !compareBaselines(&out, mk(1, 0), mk(1.5, 0)) {
		t.Error("a 50% slower median did not compare as worse")
	}
	if !compareBaselines(&out, mk(1, 0), mk(1, 0.001)) {
		t.Error("a higher fail_share did not compare as worse")
	}
	if !strings.Contains(out.String(), "query.hot") || !strings.Contains(out.String(), "base 1 ms") {
		t.Errorf("rows lack the workload or the ratio's base:\n%s", out.String())
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The checked-in BENCHMARK.json is `bench -manifest`, and meets the
// letter of the benchmark contract.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("../BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	names := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %+v", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, d := range m.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %+v", d)
		}
	}
}

func TestLastLineHasExactlyTheContractsKeys(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := newResult("query.hot", traced)
		for i, d := range endToEnd {
			r.e2e(d.Name, float64(i)+0.5, nil)
		}
		zeroMissingLayers(r)
		r.Attempted = 10
		r.check("a failed check counts as a failed op", false, "")
		r.finish()
		line, err := r.lastLine()
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil || len(got) != 4 {
			t.Fatalf("last line %s: %v", line, err)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("traced %v: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			m := metrics[d.Name]
			if len(m) != 2 || m["unit"] != d.Unit {
				t.Errorf("metric %s = %v", d.Name, m)
			}
			if v, ok := m["value"].(float64); !ok || math.IsNaN(v) {
				t.Errorf("metric %s has no numeric value", d.Name)
			}
		}
		if string(got["correct"]) != "false" || string(got["attempted"]) != "11" || string(got["failed"]) != "1" {
			t.Errorf("correct/attempted/failed = %s/%s/%s", got["correct"], got["attempted"], got["failed"])
		}
	}
	if _, err := newResult("query.hot", false).lastLine(); err == nil {
		t.Error("a result with unmeasured metrics produced a last line")
	}
}

func TestQuarterMedians(t *testing.T) {
	var at, lat []int64
	for i := 0; i < 100; i++ {
		at = append(at, int64(i))
		lat = append(lat, int64(i)*1e6)
	}
	first, last := quarterMedians(at, lat)
	if first != 12 || last != 87 {
		t.Errorf("quarter medians %v %v, want 12 87", first, last)
	}
}
