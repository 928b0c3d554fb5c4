package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/vec"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{BatchWindow: 200 * time.Microsecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	var created Summary
	status, body := postJSON(t, ts.URL+"/v1/datasets", createRequest{
		Name: "census", Kind: "piecewise", N: 256, Scale: 50000, Seed: 11, EpsTotal: 10,
	}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if created.Domain != 256 || created.Remaining != 10 {
		t.Fatalf("created summary %+v", created)
	}

	// Budget-free query must fail until something is measured — with 409
	// (the dataset's state lacks measurements), not a generic 400.
	status, body = postJSON(t, ts.URL+"/v1/datasets/census/query",
		queryRequest{Ranges: [][2]int{{0, 255}}}, nil)
	if status != http.StatusConflict {
		t.Fatalf("pre-measure query: %d %s", status, body)
	}

	var meas struct {
		Rows       int     `json:"rows"`
		Consumed   float64 `json:"consumed"`
		Remaining  float64 `json:"remaining"`
		AuditIndex uint64  `json:"audit_index"`
		AuditLeaf  string  `json:"audit_leaf"`
	}
	status, body = postJSON(t, ts.URL+"/v1/datasets/census/measure",
		measureRequest{Strategy: "hb", Eps: 5}, &meas)
	if status != http.StatusOK {
		t.Fatalf("measure: %d %s", status, body)
	}
	if math.Abs(meas.Consumed-5) > 1e-9 || math.Abs(meas.Remaining-5) > 1e-9 {
		t.Fatalf("measure accounting %+v", meas)
	}
	if meas.AuditIndex != 0 || len(meas.AuditLeaf) != 64 {
		t.Fatalf("measure audit receipt %+v", meas)
	}

	var res QueryResult
	status, body = postJSON(t, ts.URL+"/v1/datasets/census/query",
		queryRequest{Ranges: [][2]int{{0, 255}, {10, 20}}}, &res)
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	if len(res.Answers) != 2 || len(res.Stderr) != 2 {
		t.Fatalf("query result %+v", res)
	}
	// At eps=5 over 50k records the total estimate should be close.
	truth := vec.Sum(dataset.Synthetic1D("piecewise", 256, 50000, 11))
	if math.Abs(res.Answers[0]-truth) > 0.05*truth {
		t.Fatalf("total answer %v, truth %v", res.Answers[0], truth)
	}
	if res.Stderr[0] <= 0 {
		t.Fatalf("missing error bar: %+v", res)
	}

	var budget map[string]float64
	if getJSON(t, ts.URL+"/v1/datasets/census/budget", &budget) != http.StatusOK {
		t.Fatal("budget endpoint failed")
	}
	if math.Abs(budget["remaining"]-5) > 1e-9 {
		t.Fatalf("budget report %v", budget)
	}

	// Overdraft is a clean, data-independent 402.
	status, body = postJSON(t, ts.URL+"/v1/datasets/census/measure",
		measureRequest{Strategy: "identity", Eps: 7}, nil)
	if status != http.StatusPaymentRequired {
		t.Fatalf("overdraft: %d %s", status, body)
	}
}

// TestRequestBodyBounded pins the body rules every JSON endpoint shares:
// a body over MaxBodyBytes gets 413 and a JSON value followed by more
// than whitespace gets 400, and neither spends budget, bumps the
// generation or appends an audit leaf.
func TestRequestBodyBounded(t *testing.T) {
	s, ts := newTestServer(t)
	d, err := s.CreateDataset("bounded", "piecewise", 64, 1000, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/datasets/bounded/measure"
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	before := d.Summary()
	unchanged := func(what string) {
		t.Helper()
		after := d.Summary()
		if after.Consumed != before.Consumed || after.Generation != before.Generation || after.AuditSize != before.AuditSize {
			t.Fatalf("%s changed state: consumed %v→%v, generation %d→%d, audit %d→%d", what,
				before.Consumed, after.Consumed, before.Generation, after.Generation, before.AuditSize, after.AuditSize)
		}
	}

	// Valid JSON, padded with whitespace inside the object past the limit.
	padded := `{"strategy":"identity",` + strings.Repeat(" ", MaxBodyBytes) + `"eps":0.5}`
	if status, msg := post(padded); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: %d %s, want 413", status, msg)
	}
	unchanged("over-limit body")
	if status, msg := post(`{"strategy":"identity","eps":0.5} x`); status != http.StatusBadRequest {
		t.Fatalf("trailing data: %d %s, want 400", status, msg)
	}
	unchanged("trailing data")
	if status, msg := post(`{"strategy":"identity","eps":0.5}` + " \n\t"); status != http.StatusOK {
		t.Fatalf("trailing whitespace: %d %s, want 200", status, msg)
	}
}

func TestServePlansEndpointListsRegistry(t *testing.T) {
	_, ts := newTestServer(t)
	var out struct {
		Plans []planEntry `json:"plans"`
		Ops   []string    `json:"privacy_critical_operators"`
	}
	if getJSON(t, ts.URL+"/v1/plans", &out) != http.StatusOK {
		t.Fatal("plans endpoint failed")
	}
	if len(out.Plans) != 20 || len(out.Ops) == 0 {
		t.Fatalf("plans listing: %d plans, %d ops", len(out.Plans), len(out.Ops))
	}
}

// TestServeConcurrentClients is the acceptance check: ≥4 parallel HTTP
// clients measuring and querying one dataset under -race, with
// linearizable budget accounting at the end — run once per estimate
// solver, so the LSMRMulti panel path sees the same concurrency stress
// as the CGLS original.
//
// MaxIter is raised for every solver alike because convergence must not
// depend on which commits a query happens to see: with the hb block and
// only one to four of the half-ε identity blocks in the log, the nnls
// (FISTA) solve needs 403–1131 iterations — over the default 400 — and
// a query lands in that window only when it overtakes the other
// clients' first measures, which made the converged assertion fail
// about 2 runs in 30. Every reachable log state converges well inside
// 4000; cgls, lsmr and normal never come near either limit.
func TestServeConcurrentClients(t *testing.T) {
	for _, solverName := range Solvers() {
		t.Run(solverName, func(t *testing.T) {
			s := New(Config{BatchWindow: 200 * time.Microsecond, MaxIter: 4000})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				s.Close()
			})
			name := "shared-" + solverName
			d, err := s.CreateDatasetWithOptions(name, "piecewise", 128, 20000, 3, 100, solverName, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Measure("hb", 1); err != nil {
				t.Fatal(err)
			}

			const clients = 6
			const perClient = 8
			const measureEps = 0.5
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					client := &http.Client{}
					for i := 0; i < perClient; i++ {
						// Interleave budget spending and querying.
						if i%3 == 0 {
							body, _ := json.Marshal(measureRequest{Strategy: "identity", Eps: measureEps})
							resp, err := client.Post(ts.URL+"/v1/datasets/"+name+"/measure", "application/json", bytes.NewReader(body))
							if err != nil {
								t.Error(err)
								return
							}
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								t.Errorf("client %d measure status %d", c, resp.StatusCode)
							}
							continue
						}
						lo := (c*13 + i*7) % 100
						body, _ := json.Marshal(queryRequest{Ranges: [][2]int{{lo, lo + 20}, {0, 127}}})
						resp, err := client.Post(ts.URL+"/v1/datasets/"+name+"/query", "application/json", bytes.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						var res QueryResult
						err = json.NewDecoder(resp.Body).Decode(&res)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Errorf("client %d query status %d err %v", c, resp.StatusCode, err)
							return
						}
						if len(res.Answers) != 2 {
							t.Errorf("client %d bad answers %v", c, res.Answers)
						}
						if !res.SolveConverged || res.SolveIterations == 0 {
							t.Errorf("client %d: solve state not surfaced: %+v", c, res)
						}
					}
				}(c)
			}
			wg.Wait()

			// Linearizable accounting: 1 warmup + clients×⌈perClient/3⌉ measures
			// of 0.5 each, every one granted (ample budget), summing exactly.
			measures := clients * ((perClient + 2) / 3)
			want := 1 + float64(measures)*measureEps
			sum := d.Summary()
			if math.Abs(sum.Consumed-want) > 1e-9 {
				t.Fatalf("consumed %v, want exactly %v", sum.Consumed, want)
			}
			if sum.Sessions < measures+1 {
				t.Fatalf("sessions %d, want ≥ %d", sum.Sessions, measures+1)
			}
			if sum.Solver != solverName {
				t.Fatalf("summary solver %q, want %q", sum.Solver, solverName)
			}
		})
	}
}

// TestBatcherCoalescesConcurrentClients checks the panel batching tier
// directly: many goroutines submitting together must share panels (at
// least one batch carries more than one client) and every client gets
// its own answers back, matching a direct single-client evaluation.
func TestBatcherCoalescesConcurrentClients(t *testing.T) {
	s := New(Config{BatchWindow: 2 * time.Millisecond})
	defer s.Close()
	d, err := s.CreateDataset("b", "piecewise", 64, 10000, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("identity", 10); err != nil {
		t.Fatal(err)
	}
	// Prime the panel so the batched runs measure only the MatMat pass.
	if _, err := d.Query([]mat.Range1D{{Lo: 0, Hi: 63}}); err != nil {
		t.Fatal(err)
	}
	single, err := d.Query([]mat.Range1D{{Lo: 4, Hi: 40}})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	results := make([]QueryResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, err := d.Query([]mat.Range1D{{Lo: 4, Hi: 40}, {Lo: c, Hi: c + 10}})
			if err != nil {
				t.Error(err)
				return
			}
			results[c] = r
		}(c)
	}
	wg.Wait()

	maxClients := 0
	for c, r := range results {
		if r.Answers[0] != single.Answers[0] {
			t.Fatalf("client %d: batched answer %v != direct %v", c, r.Answers[0], single.Answers[0])
		}
		if r.BatchClients > maxClients {
			maxClients = r.BatchClients
		}
	}
	if maxClients < 2 {
		t.Fatalf("no coalescing observed (max batch clients %d)", maxClients)
	}
}

// TestBootstrapErrorBarsTrackNoise sanity-checks the replicate columns:
// a low-budget (noisy) dataset must report larger standard errors than
// a high-budget one for the same workload.
func TestBootstrapErrorBarsTrackNoise(t *testing.T) {
	s := New(Config{Replicates: 8})
	defer s.Close()
	mkErr := func(name string, eps float64) float64 {
		d, err := s.CreateDataset(name, "piecewise", 64, 10000, 9, eps+1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Measure("identity", eps); err != nil {
			t.Fatal(err)
		}
		res, err := d.Query([]mat.Range1D{{Lo: 0, Hi: 63}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stderr[0]
	}
	noisy := mkErr("lowbudget", 0.05)
	clean := mkErr("highbudget", 50)
	if !(noisy > 5*clean) {
		t.Fatalf("stderr low-eps %v should dwarf high-eps %v", noisy, clean)
	}
}

// TestServeRejectsBadInput covers the validation surface.
func TestServeRejectsBadInput(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.CreateDataset("v", "uniform", 32, 1000, 1, 5); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		url  string
		body any
		want int
	}{
		{"/v1/datasets", createRequest{Name: "", N: 8, EpsTotal: 1}, http.StatusBadRequest},
		{"/v1/datasets", createRequest{Name: "v", N: 8, EpsTotal: 1}, http.StatusConflict}, // duplicate
		{"/v1/datasets", createRequest{Name: "w", N: 8, EpsTotal: 1, Solver: "qr"}, http.StatusBadRequest},
		{"/v1/datasets/v/measure", measureRequest{Strategy: "nope", Eps: 1}, http.StatusBadRequest},
		{"/v1/datasets/v/measure", measureRequest{Strategy: "identity", Eps: -1}, http.StatusBadRequest},
		{"/v1/datasets/v/query", queryRequest{Ranges: [][2]int{{-1, 5}}}, http.StatusBadRequest},
		{"/v1/datasets/v/query", queryRequest{Ranges: [][2]int{{0, 32}}}, http.StatusBadRequest},
		{"/v1/datasets/v/query", queryRequest{}, http.StatusBadRequest},
		{"/v1/datasets/missing/query", queryRequest{Ranges: [][2]int{{0, 1}}}, http.StatusNotFound},
	}
	for _, c := range cases {
		status, body := postJSON(t, ts.URL+c.url, c.body, nil)
		if status != c.want {
			t.Errorf("%s %v: status %d (%s), want %d", c.url, c.body, status, body, c.want)
		}
	}
}

// TestServeLSMRSolverEndToEnd drives the whole HTTP surface with the
// lsmr solver selected through the create-dataset endpoint: the summary
// reports the solver, answers match the dataset truth, and the solve
// state is surfaced.
func TestServeLSMRSolverEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	var created Summary
	status, body := postJSON(t, ts.URL+"/v1/datasets", createRequest{
		Name: "lsmr-ds", Kind: "piecewise", N: 128, Scale: 50000, Seed: 13, EpsTotal: 10, Solver: "lsmr",
	}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if created.Solver != "lsmr" {
		t.Fatalf("created solver %q, want lsmr", created.Solver)
	}
	if status, body = postJSON(t, ts.URL+"/v1/datasets/lsmr-ds/measure",
		measureRequest{Strategy: "hb", Eps: 5}, nil); status != http.StatusOK {
		t.Fatalf("measure: %d %s", status, body)
	}
	var res QueryResult
	if status, body = postJSON(t, ts.URL+"/v1/datasets/lsmr-ds/query",
		queryRequest{Ranges: [][2]int{{0, 127}}}, &res); status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	truth := vec.Sum(dataset.Synthetic1D("piecewise", 128, 50000, 13))
	if math.Abs(res.Answers[0]-truth) > 0.05*truth {
		t.Fatalf("total answer %v, truth %v", res.Answers[0], truth)
	}
	if !res.SolveConverged || res.SolveIterations == 0 {
		t.Fatalf("lsmr solve state missing: %+v", res)
	}
	var sum Summary
	if getJSON(t, ts.URL+"/v1/datasets/lsmr-ds", &sum) != http.StatusOK {
		t.Fatal("summary failed")
	}
	if sum.Solver != "lsmr" || !sum.SolveConverged || sum.SolveIterations == 0 {
		t.Fatalf("summary solve state: %+v", sum)
	}
}

// TestServeSolversAgree answers two same-seed datasets, measured alike,
// one with each iterative solver: the least-squares problem has one
// solution, so the solver must not move the answers beyond solver
// tolerance.
func TestServeSolversAgree(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ranges := []mat.Range1D{{Lo: 0, Hi: 63}, {Lo: 5, Hi: 20}, {Lo: 33, Hi: 34}}
	answer := func(solverName string) []float64 {
		d, err := s.CreateDatasetWithOptions("agree-"+solverName, "piecewise", 64, 10000, 17, 50, solverName, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Measure("hb", 2); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Measure("identity", 1); err != nil {
			t.Fatal(err)
		}
		res, err := d.Query(ranges)
		if err != nil {
			t.Fatal(err)
		}
		return res.Answers
	}
	cgls, lsmr := answer(SolverCGLS), answer(SolverLSMR)
	if !vec.AllClose(cgls, lsmr, 1e-6, 1e-6) {
		t.Fatalf("solvers disagree: cgls %v vs lsmr %v", cgls, lsmr)
	}
}

// TestBatcherRecoversFromPanickedBatch is the regression test for the
// batcher-death bug: a poisoned request that panics inside answerBatch
// must come back as an error — and the batcher must keep serving
// subsequent queries instead of failing everything with "batcher
// stopped" forever.
func TestBatcherRecoversFromPanickedBatch(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	d, err := s.CreateDataset("poison", "piecewise", 32, 1000, 21, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("identity", 5); err != nil {
		t.Fatal(err)
	}
	// Bypass Query's validation with an out-of-domain range, which makes
	// mat.RangeQueries panic inside the batch answering path.
	if _, err := d.batch.submit([]mat.Range1D{{Lo: 0, Hi: 64}}); err == nil {
		t.Fatal("poisoned request did not error")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned request error = %v, want recovered panic", err)
	}
	// The batcher survived: a well-formed query still gets an answer.
	res, err := d.Query([]mat.Range1D{{Lo: 0, Hi: 31}})
	if err != nil {
		t.Fatalf("query after recovered panic: %v", err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("bad answers after recovery: %+v", res)
	}
}

// TestServeStatusServiceUnavailable pins the 503 mappings: creating on
// a closed server, and querying a dataset whose batcher is stopped —
// even a workload the cache answered before Close.
func TestServeStatusServiceUnavailable(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d, err := s.CreateDataset("gone", "piecewise", 32, 1000, 23, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("identity", 5); err != nil {
		t.Fatal(err)
	}
	wl := queryRequest{Ranges: [][2]int{{0, 10}}}
	status, body := postJSON(t, ts.URL+"/v1/datasets/gone/query", wl, nil)
	if status != http.StatusOK {
		t.Fatalf("query before close: %d %s", status, body)
	}
	s.Close() // stops every dataset batcher
	status, body = postJSON(t, ts.URL+"/v1/datasets/gone/query", wl, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("query on stopped batcher: %d %s", status, body)
	}
	status, body = postJSON(t, ts.URL+"/v1/datasets", createRequest{
		Name: "late", Kind: "piecewise", N: 32, Scale: 1000, Seed: 1, EpsTotal: 5,
	}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("create on closed server: %d %s", status, body)
	}
}

// TestNonConvergenceSurfaced caps the block solve at one iteration and
// checks the truncation is visible to clients in both the query result
// and the dataset summary, for the iterative solvers. The "normal"
// solver is direct (one Cholesky factorization regardless of MaxIter),
// so it has no truncated state to surface and is skipped.
func TestNonConvergenceSurfaced(t *testing.T) {
	for _, solverName := range Solvers() {
		if solverName == SolverNormal {
			continue
		}
		s := New(Config{MaxIter: 1, Solver: solverName})
		d, err := s.CreateDataset("trunc-"+solverName, "piecewise", 256, 10000, 29, 50)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Measure("hb", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Measure("identity", 2); err != nil {
			t.Fatal(err)
		}
		res, err := d.Query([]mat.Range1D{{Lo: 0, Hi: 255}})
		if err != nil {
			t.Fatal(err)
		}
		if res.SolveConverged || res.SolveIterations != 1 {
			t.Errorf("%s: truncated solve not surfaced in result: %+v", solverName, res)
		}
		if sum := d.Summary(); sum.SolveConverged || sum.SolveIterations != 1 {
			t.Errorf("%s: truncated solve not surfaced in summary: %+v", solverName, sum)
		}
		s.Close()
	}
}

// TestBatcherRecoversFromPanicUnderLock pins the harder failure mode: a
// panic raised while answerBatch holds d.mu (inside the panel refresh)
// must release the mutex on unwind — otherwise the recovered batcher
// leaks the lock and every later query, summary and measure on the
// dataset deadlocks instead of serving.
func TestBatcherRecoversFromPanicUnderLock(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	d, err := s.CreateDataset("lockpoison", "piecewise", 32, 1000, 27, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("identity", 5); err != nil {
		t.Fatal(err)
	}
	// Poison the measurement log: a block whose matrix disagrees with
	// the domain makes the inference assembly panic inside
	// refreshLocked, i.e. while d.mu is held.
	d.mu.Lock()
	d.blocks = append(d.blocks, measBlock{m: mat.Identity(16), y: make([]float64, 16), scale: 1})
	d.stale = true
	d.mu.Unlock()
	if _, err := d.Query([]mat.Range1D{{Lo: 0, Hi: 31}}); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned refresh: err = %v, want recovered panic", err)
	}
	// Repair the log; the dataset must still serve — which requires the
	// mutex to have been released during the panic unwind.
	d.mu.Lock()
	d.blocks = d.blocks[:1]
	d.stale = true
	d.mu.Unlock()
	done := make(chan Summary, 1)
	go func() { done <- d.Summary() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("d.mu leaked across the recovered panic: Summary deadlocked")
	}
	if res, err := d.Query([]mat.Range1D{{Lo: 0, Hi: 31}}); err != nil || len(res.Answers) != 1 {
		t.Fatalf("query after repaired log: res=%+v err=%v", res, err)
	}
}

// TestServeDenormalEpsilonRefused: a denormal ε is positive and finite,
// but its Laplace scale is +Inf. The measure must fail as bad input
// before any budget moves — no generation, no spend, no ledger leaf, no
// read-only degrade — and the dataset must keep measuring and answering
// finitely, with or without persistence.
func TestServeDenormalEpsilonRefused(t *testing.T) {
	for _, stateDir := range []string{"", t.TempDir()} {
		t.Run(fmt.Sprintf("persist=%v", stateDir != ""), func(t *testing.T) {
			s := New(Config{BatchWindow: 200 * time.Microsecond, StateDir: stateDir})
			ts := httptest.NewServer(s.Handler())
			defer s.Close()
			defer ts.Close()
			if _, err := s.CreateDataset("tiny", "piecewise", 32, 1000, 1, 5); err != nil {
				t.Fatal(err)
			}
			var before, after Summary
			getJSON(t, ts.URL+"/v1/datasets/tiny", &before)
			status, body := postJSON(t, ts.URL+"/v1/datasets/tiny/measure", measureRequest{Strategy: "identity", Eps: 5e-324}, nil)
			if status != http.StatusBadRequest {
				t.Fatalf("denormal eps: status %d (%s), want 400", status, body)
			}
			getJSON(t, ts.URL+"/v1/datasets/tiny", &after)
			if after.Generation != before.Generation || after.Consumed != before.Consumed ||
				after.AuditSize != before.AuditSize || after.WALOffset != before.WALOffset || after.ReadOnly {
				t.Fatalf("refused measure moved state: %+v -> %+v", before, after)
			}
			if status, body := postJSON(t, ts.URL+"/v1/datasets/tiny/measure", measureRequest{Strategy: "identity", Eps: 1}, nil); status != http.StatusOK {
				t.Fatalf("measure after the refusal: status %d (%s)", status, body)
			}
			var res QueryResult
			if status, body := postJSON(t, ts.URL+"/v1/datasets/tiny/query", queryRequest{Ranges: [][2]int{{0, 31}, {3, 9}}}, &res); status != http.StatusOK {
				t.Fatalf("query: status %d (%s)", status, body)
			}
			for _, v := range append(res.Answers, res.Stderr...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite answer: %v ± %v", res.Answers, res.Stderr)
				}
			}
		})
	}
}
