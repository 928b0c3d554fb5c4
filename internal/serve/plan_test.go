package serve

import (
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/core/plans"
)

// TestPlanEndpointEveryRegistryPlan is the plan-execution acceptance
// table: every Fig. 2 registry plan must execute over HTTP against a
// served dataset, charge *exactly* its declared epsilon through its
// per-request kernel session (session totals partition the root
// budget), add rows to the warm measurement log, and leave the dataset
// answering queries.
func TestPlanEndpointEveryRegistryPlan(t *testing.T) {
	const n = 64
	const planEps = 1.0
	// Per-plan public parameters; plans absent from the map run with the
	// zero parameter set (nil Params pointer over the wire).
	three := 3
	params := map[string]*planParams{
		"MWEM":           {Rounds: three, Total: 40000},
		"MWEM variant b": {Rounds: three, Total: 40000},
		"MWEM variant c": {Rounds: three, Total: 40000},
		"MWEM variant d": {Rounds: three, Total: 40000},
		"UniformGrid":    {Total: 40000},
		"AdaptiveGrid":   {Total: 40000},
		"HDMM":           {Seed: 5},
		"HB-Striped":     {Dim: new(int)}, // explicit dim 0: the pointer zero value must be honored
	}
	for i, name := range plans.PlanNames() {
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t)
			dsName := "plan-ds"
			d, err := s.CreateDataset(dsName, "piecewise", n, 40000, uint64(100+i), 50)
			if err != nil {
				t.Fatal(err)
			}
			var res PlanResult
			status, body := postJSON(t, ts.URL+"/v1/datasets/"+dsName+"/plan",
				planRequest{Plan: name, Eps: planEps, Params: params[name]}, &res)
			if status != http.StatusOK {
				t.Fatalf("plan %q: %d %s", name, status, body)
			}
			if res.Plan != name || res.Signature == "" || len(res.Trace) == 0 || res.Rows <= 0 {
				t.Fatalf("plan result %+v", res)
			}
			// Exact Algorithm 2 accounting: the request's session consumed
			// the declared epsilon, no more, no less — parallel composition
			// (striped and grid plans) and sequential splits (AHP, DAWA,
			// MWEM rounds, PrivBayes stages) alike must sum back to eps.
			if math.Abs(res.EpsCharged-planEps) > 1e-9 {
				t.Fatalf("plan %q charged %v, want exactly %v", name, res.EpsCharged, planEps)
			}
			if math.Abs(res.Consumed-planEps) > 1e-9 {
				t.Fatalf("plan %q: root consumed %v, want %v", name, res.Consumed, planEps)
			}
			sum := d.Summary()
			if sum.MeasuredRows != res.Rows || sum.Generation != 1 {
				t.Fatalf("plan %q: summary %+v after result %+v", name, sum, res)
			}
			// The appended log answers queries.
			var q QueryResult
			status, body = postJSON(t, ts.URL+"/v1/datasets/"+dsName+"/query",
				queryRequest{Ranges: [][2]int{{0, n - 1}}}, &q)
			if status != http.StatusOK || len(q.Answers) != 1 {
				t.Fatalf("plan %q: query after plan: %d %s", name, status, body)
			}
		})
	}
}

// TestPlanEndpointRejectsBadInput pins the plan endpoint's validation
// surface: unknown names and invalid public parameters are 400s,
// budget exhaustion stays 402, and /measure refuses a "plan" field as
// an unknown field.
func TestPlanEndpointRejectsBadInput(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.CreateDataset("p", "piecewise", 32, 1000, 3, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown plan", "/v1/datasets/p/plan", planRequest{Plan: "NotAPlan", Eps: 1}, http.StatusBadRequest},
		{"empty plan", "/v1/datasets/p/plan", planRequest{Eps: 1}, http.StatusBadRequest},
		{"bad eps", "/v1/datasets/p/plan", planRequest{Plan: "Identity", Eps: -1}, http.StatusBadRequest},
		{"nan eps", "/v1/datasets/p/plan", map[string]any{"plan": "Identity", "eps": "x"}, http.StatusBadRequest},
		{"bad shape", "/v1/datasets/p/plan",
			planRequest{Plan: "Quadtree", Eps: 1, Params: &planParams{Shape: []int{5, 5}}}, http.StatusBadRequest},
		{"bad workload", "/v1/datasets/p/plan",
			planRequest{Plan: "Greedy-H", Eps: 1, Params: &planParams{Workload: [][2]int{{0, 99}}}}, http.StatusBadRequest},
		{"negative rounds", "/v1/datasets/p/plan",
			planRequest{Plan: "MWEM", Eps: 1, Params: &planParams{Rounds: -2}}, http.StatusBadRequest},
		{"overdraft", "/v1/datasets/p/plan", planRequest{Plan: "Identity", Eps: 5}, http.StatusPaymentRequired},
		// A valid strategy measurement plus a "plan" field: the field
		// alone makes it a 400.
		{"plan field on measure", "/v1/datasets/p/measure",
			map[string]any{"strategy": "identity", "eps": 1, "plan": ""}, http.StatusBadRequest},
		{"unknown dataset", "/v1/datasets/missing/plan", planRequest{Plan: "Identity", Eps: 1}, http.StatusNotFound},
	}
	for _, c := range cases {
		status, body := postJSON(t, ts.URL+c.url, c.body, nil)
		if status != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, status, body, c.want)
		}
	}
}

// TestPlanEmptyWorkloadDefaults is the regression for the empty-slice
// hole: JSON "workload":[] decodes to a non-nil empty slice, which must
// take the same default as an omitted workload — MWEM's selection
// operator panics server-side on zero candidates otherwise.
func TestPlanEmptyWorkloadDefaults(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.CreateDataset("ew", "piecewise", 32, 1000, 19, 10); err != nil {
		t.Fatal(err)
	}
	var res PlanResult
	status, body := postJSON(t, ts.URL+"/v1/datasets/ew/plan",
		planRequest{Plan: "MWEM", Eps: 1,
			Params: &planParams{Rounds: 2, Total: 1000, Workload: [][2]int{}}}, &res)
	if status != http.StatusOK {
		t.Fatalf("empty workload: %d %s", status, body)
	}
	if res.Rows == 0 {
		t.Fatalf("empty-workload MWEM measured nothing: %+v", res)
	}
}

// TestPlanFailureKeepsSpentBudgetOutOfLog pins the partial-failure
// contract: a plan that exhausts the budget mid-run leaves the spent
// portion charged (the privacy ledger cannot roll back) but adds
// nothing to the measurement log.
func TestPlanFailureKeepsSpentBudgetOutOfLog(t *testing.T) {
	s := New(Config{BatchWindow: 100 * time.Microsecond})
	defer s.Close()
	// AHP spends ρ·ε = 1 on partition selection, then needs (1−ρ)·ε = 1
	// more for the measurement; a budget of 1.5 grants the first charge
	// and refuses the second.
	d, err := s.CreateDataset("partial", "piecewise", 32, 1000, 7, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.MeasurePlan("AHP", 2, plans.Params{}); err == nil {
		t.Fatal("overdrafting plan did not fail")
	}
	sum := d.Summary()
	if sum.Measurements != 0 || sum.MeasuredRows != 0 {
		t.Fatalf("failed plan leaked measurements: %+v", sum)
	}
	if !(sum.Consumed > 0.99 && sum.Consumed < 1.01) {
		t.Fatalf("partial spend not kept: consumed %v, want ~1", sum.Consumed)
	}
}
