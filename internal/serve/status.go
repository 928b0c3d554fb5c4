package serve

import (
	"net/http"
	"runtime"
	"strconv"

	"repro/internal/audit"
)

// Liveness and status endpoints (see http.go for the full surface):
//
//	GET /healthz    — liveness: 200 "ok" while the process accepts
//	                  requests, 503 once the server is closed
//	GET /v1/status  — process + per-dataset state: generation, WAL
//	                  stream epoch/offset, read_only, follower role and
//	                  panel warm/cold counters
//
// Both are the router's probe targets (internal/cluster/health.go) and
// stay cheap by construction: /healthz touches one RWMutex, and
// /v1/status is scalar copies per dataset — no O(rows) work, no kernel
// history copies (see Summary) — so a probe storm cannot stall writers.

// DatasetStatus is one dataset's row in the /v1/status report: the
// cluster-relevant subset of Summary plus the public creation metadata
// (seed, solver, damping) a replica needs to construct a matching
// follower.
type DatasetStatus struct {
	Name     string  `json:"name"`
	Domain   int     `json:"domain"`
	EpsTotal float64 `json:"eps_total"`
	Consumed float64 `json:"consumed"`
	Seed     uint64  `json:"seed"`
	Solver   string  `json:"solver"`
	Damping  float64 `json:"damping"`
	// Generation / WALEpoch / WALOffset locate the replication stream's
	// head; a follower is caught up when its applied offset matches at
	// the same epoch.
	Generation uint64 `json:"generation"`
	WALEpoch   uint64 `json:"wal_epoch"`
	WALOffset  int64  `json:"wal_offset"`
	// AuditSize / AuditRoot are the audit ledger head. Deterministic
	// given the commit history: a healthy follower's values equal the
	// primary's at equal generation, and the follower manager checks
	// exactly that. ReplicationError is the sticky divergence latch — a
	// follower whose rebuilt ledger contradicted the primary's shipped
	// audit checkpoints (or an out-of-band root comparison).
	AuditSize        uint64 `json:"audit_size"`
	AuditRoot        string `json:"audit_root"`
	ReplicationError string `json:"replication_error,omitempty"`
	ReadOnly         bool   `json:"read_only,omitempty"`
	// Follower / Primary report the replica role for this process's copy.
	Follower bool   `json:"follower,omitempty"`
	Primary  string `json:"primary,omitempty"`
	// Panel refresh split (warm = incremental, cold = rebuild).
	WarmRefreshes int `json:"warm_refreshes"`
	ColdRefreshes int `json:"cold_refreshes"`
}

// Status is the /v1/status payload.
type Status struct {
	GoVersion string          `json:"go_version"`
	Datasets  []DatasetStatus `json:"datasets"`
}

// status of one dataset, by the same locking discipline as Summary.
func (d *Dataset) status() DatasetStatus {
	d.mu.Lock()
	st := DatasetStatus{
		Name:             d.name,
		Domain:           d.n,
		Seed:             d.seed,
		Solver:           d.solver,
		Damping:          d.damp,
		Generation:       d.gen,
		WALEpoch:         d.repl.epoch,
		WALOffset:        d.repl.end,
		AuditSize:        d.audit.Size(),
		AuditRoot:        audit.FormatHash(d.audit.Root()),
		ReplicationError: errText(d.replErr),
		ReadOnly:         d.readOnly,
		Follower:         d.follower,
		Primary:          d.primary,
		WarmRefreshes:    d.warmRefreshes,
		ColdRefreshes:    d.coldRefreshes,
	}
	d.mu.Unlock()
	st.EpsTotal = d.kern.EpsTotal()
	st.Consumed = d.kern.Consumed()
	return st
}

// Status reports the process's per-dataset cluster state.
func (s *Server) Status() Status {
	st := Status{GoVersion: runtime.Version(), Datasets: []DatasetStatus{}}
	for _, name := range s.Names() {
		if d, ok := s.Dataset(name); ok {
			st.Datasets = append(st.Datasets, d.status())
		}
	}
	return st
}

// Closed reports whether the server has shut down (the /healthz signal).
func (s *Server) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Closed() {
		http.Error(w, "closing", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// Replication-stream response headers of the WAL tail endpoint.
const (
	// HeaderWALEpoch / HeaderWALNext frame a tail response: the stream
	// epoch the bytes belong to and the offset to resume from. An epoch
	// change tells the follower to restart from zero.
	HeaderWALEpoch = "X-Ektelo-Wal-Epoch"
	HeaderWALNext  = "X-Ektelo-Wal-Next"
	// HeaderGeneration is the measurement-log generation the response
	// reaches (tail endpoint) or was answered at (router staleness).
	HeaderGeneration = "X-Ektelo-Generation"
	// HeaderPrimary names the write endpoint on a 421 response.
	HeaderPrimary = "X-Ektelo-Primary"
)

// handleWALTail serves GET /v1/datasets/{name}/wal?from=N: the
// replication stream from byte offset N, verbatim frames. 416 with the
// current end offset in HeaderWALNext means the offset is outside the
// stream (stale epoch) — re-tail from zero.
func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request, d *Dataset) {
	var from int64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			writeErr(w, httpError{http.StatusBadRequest, "bad from offset: " + err.Error()})
			return
		}
		from = v
	}
	data, next, epoch, gen, err := d.WALTail(from)
	w.Header().Set(HeaderWALEpoch, strconv.FormatUint(epoch, 10))
	w.Header().Set(HeaderWALNext, strconv.FormatInt(next, 10))
	w.Header().Set(HeaderGeneration, strconv.FormatUint(gen, 10))
	if err != nil {
		writeErr(w, httpError{http.StatusRequestedRangeNotSatisfiable, err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}
