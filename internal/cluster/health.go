package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Per-backend state the router maintains: a readiness flag driven by
// the health prober, the last /v1/status snapshot (per-dataset
// generations — failover ranks replicas by freshness with these), and
// request/latency/inflight accounting for every proxied call. The
// counters are atomics so the proxy's hot path never takes the mutex;
// the mutex guards only the prober-written snapshot fields.

type backendState struct {
	name string
	addr string

	// Proxy accounting (atomic — written on every proxied request).
	requests  atomic.Uint64
	errors    atomic.Uint64
	inflight  atomic.Int64
	latencyNS atomic.Int64

	mu       sync.Mutex
	ready    bool
	lastErr  error
	lastSeen time.Time
	// datasets is the backend's last /v1/status report, keyed by dataset
	// name — only rows the backend serves (primary or follower).
	datasets map[string]serve.DatasetStatus
}

// setProbe records one probe outcome.
func (b *backendState) setProbe(ready bool, err error, datasets map[string]serve.DatasetStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ready = ready
	b.lastErr = err
	if ready {
		b.lastSeen = time.Now()
		if datasets != nil {
			b.datasets = datasets
		}
	}
}

// markDown flips the backend unready immediately (called when a
// proxied request fails at the transport level, so the router does not
// wait out a probe interval to stop sending traffic there).
func (b *backendState) markDown(err error) {
	b.mu.Lock()
	b.ready = false
	b.lastErr = err
	b.mu.Unlock()
}

func (b *backendState) isReady() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready
}

// generation returns the backend's last reported generation for the
// dataset (0 when unknown) — the freshness rank used for failover.
func (b *backendState) generation(dataset string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if st, ok := b.datasets[dataset]; ok {
		return st.Generation
	}
	return 0
}

// BackendReport is one backend's row in the router's /v1/cluster/status.
type BackendReport struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Ready    bool   `json:"ready"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	InFlight int64  `json:"in_flight"`
	// AvgLatencyMs is mean proxied-request latency since start.
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	LastError    string  `json:"last_error,omitempty"`
	// Generations is the backend's last reported per-dataset generation.
	Generations map[string]uint64 `json:"generations,omitempty"`
}

func (b *backendState) report() BackendReport {
	b.mu.Lock()
	ready, lastErr := b.ready, b.lastErr
	gens := make(map[string]uint64, len(b.datasets))
	for name, st := range b.datasets {
		gens[name] = st.Generation
	}
	b.mu.Unlock()
	r := BackendReport{
		Name:        b.name,
		Addr:        b.addr,
		Ready:       ready,
		Requests:    b.requests.Load(),
		Errors:      b.errors.Load(),
		InFlight:    b.inflight.Load(),
		Generations: gens,
	}
	if lastErr != nil {
		r.LastError = lastErr.Error()
	}
	if r.Requests > 0 {
		r.AvgLatencyMs = float64(b.latencyNS.Load()) / float64(r.Requests) / 1e6
	}
	return r
}

// probe checks one backend: /healthz for liveness, then /v1/status for
// the per-dataset state. A live backend with a failing status endpoint
// still counts as ready (liveness is the routing gate; the dataset
// snapshot is best-effort freshness data).
func probe(client *http.Client, b *backendState) {
	resp, err := client.Get(b.addr + "/healthz")
	if err != nil {
		b.setProbe(false, err, nil)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.setProbe(false, fmt.Errorf("healthz: %s", resp.Status), nil)
		return
	}
	datasets, err := fetchStatus(client, b.addr)
	b.setProbe(true, err, datasets)
}

// fetchStatus retrieves a backend's /v1/status as a by-name map.
func fetchStatus(client *http.Client, addr string) (map[string]serve.DatasetStatus, error) {
	resp, err := client.Get(addr + "/v1/status")
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status: %s", resp.Status)
	}
	var st serve.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&st); err != nil {
		return nil, fmt.Errorf("status decode: %w", err)
	}
	out := make(map[string]serve.DatasetStatus, len(st.Datasets))
	for _, ds := range st.Datasets {
		out[ds.Name] = ds
	}
	return out, nil
}
