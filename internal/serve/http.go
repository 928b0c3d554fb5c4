package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core/plans"
	"repro/internal/kernel"
	"repro/internal/mat"
)

// This file is the HTTP/JSON surface of the query service:
//
//	GET  /healthz                      — liveness (status.go)
//	GET  /v1/status                    — per-dataset cluster state
//	GET  /v1/plans                     — the Fig. 2 plan registry
//	GET  /v1/strategies                — strategies Measure accepts
//	GET  /v1/datasets                  — dataset summaries
//	POST /v1/datasets                  — create a synthetic dataset
//	GET  /v1/datasets/{name}           — one dataset's summary
//	GET  /v1/datasets/{name}/budget    — remaining-budget report
//	GET  /v1/datasets/{name}/wal       — replication-stream tail
//	                                     (?from=offset; status.go)
//	POST /v1/datasets/{name}/measure   — spend budget on a strategy
//	POST /v1/datasets/{name}/plan      — execute a Fig. 2 registry plan
//	POST /v1/datasets/{name}/query     — answer a range workload
//
// Concurrent clients are first-class: measurement and plan execution
// run in per-request kernel sessions, and query workloads the cache
// cannot answer are coalesced into shared panel products by the
// per-dataset batcher. In a cluster,
// writes against a read replica fail with 421 Misdirected Request and
// the primary's address in the X-Ektelo-Primary header.

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/plans", s.handlePlans)
	mux.HandleFunc("GET /v1/strategies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"strategies": Strategies()})
	})
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	mux.HandleFunc("GET /v1/datasets/{name}", s.withDataset(s.handleSummary))
	mux.HandleFunc("GET /v1/datasets/{name}/budget", s.withDataset(s.handleBudget))
	mux.HandleFunc("GET /v1/datasets/{name}/wal", s.withDataset(s.handleWALTail))
	mux.HandleFunc("GET /v1/datasets/{name}/audit/checkpoint", s.withDataset(s.handleAuditCheckpoint))
	mux.HandleFunc("GET /v1/datasets/{name}/audit/proof", s.withDataset(s.handleAuditProof))
	mux.HandleFunc("GET /v1/datasets/{name}/audit/consistency", s.withDataset(s.handleAuditConsistency))
	mux.HandleFunc("POST /v1/datasets/{name}/measure", s.withDataset(s.handleMeasure))
	mux.HandleFunc("POST /v1/datasets/{name}/plan", s.withDataset(s.handlePlan))
	mux.HandleFunc("POST /v1/datasets/{name}/query", s.withDataset(s.handleQuery))
	return mux
}

type httpError struct {
	status int
	msg    string
}

func (e httpError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he httpError
	var np *NotPrimaryError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.As(err, &np):
		// A write reached a read replica: 421 Misdirected Request with
		// the primary's address, so clients (and the router) know where
		// writes for this dataset go. No budget was spent — the role
		// check precedes any kernel session.
		status = http.StatusMisdirectedRequest
		w.Header().Set(HeaderPrimary, np.Primary)
	case errors.Is(err, kernel.ErrBudgetExceeded):
		// The budget decision is data-independent (paper §4.3), so
		// reporting it to the client is safe — and essential for a
		// service that must tell clients when a dataset is exhausted.
		status = http.StatusPaymentRequired
	case errors.Is(err, ErrNoMeasurements), errors.Is(err, ErrDuplicateDataset):
		// The request conflicts with the dataset's current state, not
		// with its syntax: measure first / pick another name.
		status = http.StatusConflict
	case errors.Is(err, ErrBatcherStopped), errors.Is(err, ErrServerClosed),
		errors.Is(err, ErrReadOnly):
		// The service (or this dataset's serving loop) is down, or the
		// dataset has degraded to read-only after a persistence failure;
		// the request itself may be perfectly valid.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// clientErr classifies a service-layer error for the HTTP surface:
// sentinel conditions keep their dedicated status in writeErr (a
// recovered batch or plan panic stays a 500 — the request was
// well-formed — and so does persisted state that fails to load, which
// is server-side state trouble, not client input), anything else from
// request handling is a client-input problem (400).
func clientErr(err error) error {
	switch {
	case errors.Is(err, kernel.ErrBudgetExceeded),
		errors.Is(err, ErrNoMeasurements),
		errors.Is(err, ErrDuplicateDataset),
		errors.Is(err, ErrBatcherStopped),
		errors.Is(err, ErrServerClosed),
		errors.Is(err, ErrBatchPanic),
		errors.Is(err, ErrPlanPanic),
		errors.Is(err, ErrSnapshot),
		errors.Is(err, ErrReadOnly),
		errors.Is(err, ErrNotPrimary):
		return err
	}
	return httpError{http.StatusBadRequest, err.Error()}
}

// MaxBodyBytes bounds a request body. Serve answers a larger body with
// 413 Request Entity Too Large, and the cluster router refuses it the
// same way before contacting a backend.
const MaxBodyBytes = 16 << 20

// decodeBody decodes a request body of at most MaxBodyBytes holding one
// JSON value with known fields only, as decodeStrict asks of a log record.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooLarge):
		return httpError{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", MaxBodyBytes)}
	default:
		return httpError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
}

func (s *Server) withDataset(h func(http.ResponseWriter, *http.Request, *Dataset)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		d, ok := s.Dataset(name)
		if !ok {
			writeErr(w, httpError{http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name)})
			return
		}
		h(w, r, d)
	}
}

// planEntry is one registry row of the /v1/plans listing.
type planEntry struct {
	ID              int      `json:"id"`
	Name            string   `json:"name"`
	Citation        string   `json:"citation"`
	Signature       string   `json:"signature"`
	New             bool     `json:"new"`
	PrivacyCritical []string `json:"privacy_critical"`
}

func (s *Server) handlePlans(w http.ResponseWriter, _ *http.Request) {
	out := make([]planEntry, 0, len(plans.Registry))
	for _, p := range plans.Registry {
		out = append(out, planEntry{
			ID: p.ID, Name: p.Name, Citation: p.Citation,
			Signature: p.Signature, New: p.New, PrivacyCritical: p.PrivacyCritical,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"plans":                      out,
		"privacy_critical_operators": plans.PrivacyCriticalOperators(),
	})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	names := s.Names()
	out := make([]Summary, 0, len(names))
	for _, name := range names {
		if d, ok := s.Dataset(name); ok {
			out = append(out, d.Summary())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

type createRequest struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"` // dataset.Synthetic1D kind, e.g. "piecewise"
	N        int     `json:"n"`
	Scale    float64 `json:"scale"`
	Seed     uint64  `json:"seed"`
	EpsTotal float64 `json:"eps_total"`
	// Solver optionally overrides the server's estimate-panel solver for
	// this dataset: "cgls", "lsmr", "normal" or "nnls" (empty: server
	// default).
	Solver string `json:"solver,omitempty"`
	// Damping is the Tikhonov parameter λ applied to the dataset's panel
	// solves (lsmr and normal solvers only; zero disables it).
	Damping float64 `json:"damping,omitempty"`
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Name == "" {
		writeErr(w, httpError{http.StatusBadRequest, "dataset name required"})
		return
	}
	if req.Kind == "" {
		req.Kind = "piecewise"
	}
	// The dataset is constructed directly on the requested solver, so
	// there is no window where its batcher answers with the default.
	d, err := s.CreateDatasetWithOptions(req.Name, req.Kind, req.N, req.Scale, req.Seed, req.EpsTotal, req.Solver, req.Damping)
	if err != nil {
		writeErr(w, clientErr(err))
		return
	}
	writeJSON(w, http.StatusCreated, d.Summary())
}

func (s *Server) handleSummary(w http.ResponseWriter, _ *http.Request, d *Dataset) {
	writeJSON(w, http.StatusOK, d.Summary())
}

func (s *Server) handleBudget(w http.ResponseWriter, _ *http.Request, d *Dataset) {
	sum := d.Summary()
	writeJSON(w, http.StatusOK, map[string]any{
		"eps_total": sum.EpsTotal,
		"consumed":  sum.Consumed,
		"remaining": sum.Remaining,
	})
}

type measureRequest struct {
	Strategy string  `json:"strategy"`
	Eps      float64 `json:"eps"`
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request, d *Dataset) {
	var req measureRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	rows, rcpt, err := d.MeasureAudited(req.Strategy, req.Eps)
	if err != nil {
		writeErr(w, clientErr(err))
		return
	}
	sum := d.Summary()
	writeJSON(w, http.StatusOK, map[string]any{
		"rows":        rows,
		"consumed":    sum.Consumed,
		"remaining":   sum.Remaining,
		"audit_index": rcpt.Index,
		"audit_leaf":  rcpt.Leaf,
	})
}

// planParams is the JSON form of plans.Params (see that type for the
// per-field semantics and defaults). All fields are optional public
// plan metadata.
type planParams struct {
	// Workload is inclusive [lo, hi] pairs over the dataset domain.
	Workload [][2]int `json:"workload,omitempty"`
	Rounds   int      `json:"rounds,omitempty"`
	Total    float64  `json:"total,omitempty"`
	Shape    []int    `json:"shape,omitempty"`
	// Dim defaults to the last shape axis when omitted (0 is a valid
	// explicit value, hence the pointer).
	Dim  *int   `json:"dim,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
}

// toPlans converts the wire form to plans.Params.
func (p *planParams) toPlans() plans.Params {
	if p == nil {
		return plans.Params{Dim: -1}
	}
	out := plans.Params{
		Rounds: p.Rounds,
		Total:  p.Total,
		Shape:  p.Shape,
		Dim:    -1,
		Seed:   p.Seed,
	}
	if p.Dim != nil {
		out.Dim = *p.Dim
	}
	if p.Workload != nil {
		out.Workload = make([]mat.Range1D, len(p.Workload))
		for i, r := range p.Workload {
			out.Workload[i] = mat.Range1D{Lo: r[0], Hi: r[1]}
		}
	}
	return out
}

type planRequest struct {
	// Plan is a Fig. 2 registry plan name (GET /v1/plans lists them).
	Plan string `json:"plan"`
	// Eps is the plan's total budget share, charged through a dedicated
	// kernel session with Algorithm 2 accounting.
	Eps    float64     `json:"eps"`
	Params *planParams `json:"params,omitempty"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, d *Dataset) {
	var req planRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Plan == "" {
		writeErr(w, httpError{http.StatusBadRequest, "plan name required"})
		return
	}
	res, err := d.MeasurePlan(req.Plan, req.Eps, req.Params.toPlans())
	if err != nil {
		// Unknown plan names and bad parameters are client errors (400);
		// budget exhaustion keeps its 402 through the sentinel mapping.
		writeErr(w, clientErr(err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

type queryRequest struct {
	// Ranges are inclusive [lo, hi] pairs over the dataset domain.
	Ranges [][2]int `json:"ranges"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, d *Dataset) {
	var req queryRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ranges := make([]mat.Range1D, len(req.Ranges))
	for i, p := range req.Ranges {
		ranges[i] = mat.Range1D{Lo: p[0], Hi: p[1]}
	}
	res, err := d.Query(ranges)
	if err != nil {
		// Sentinel conditions keep their status (409 before any
		// measurement, 503 when the batcher is gone); everything else
		// from validation is a 400.
		writeErr(w, clientErr(err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}
