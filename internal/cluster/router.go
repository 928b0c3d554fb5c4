package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// The router is a thin reverse proxy in front of the serve backends
// (cmd/ektelo-router): it owns no dataset state, only the ring, the
// probe-driven readiness view and per-backend accounting. Writes
// (create/measure/plan) go to the ring primary alone — there is never
// a second writer, so per-dataset budget accounting stays one ledger.
// Reads (summary/budget/query) fan across the ready owners,
// least-inflight first, retrying the next owner on transport errors
// and on responses a fresher owner could improve (404/409 from a
// replica that has not caught up, 5xx); query bodies are buffered so
// the retry can resend them — safe because queries are pure
// post-processing, idempotent by construction. When the primary is
// down its datasets keep serving reads from the freshest known replica
// with explicit staleness headers, and writes fail with 503 until the
// primary returns.

// Router response headers.
const (
	// HeaderServedBy names the backend that answered a proxied request.
	HeaderServedBy = "X-Ektelo-Served-By"
	// HeaderStale marks a read served without a live primary; the value
	// is the reason ("primary-down").
	HeaderStale = "X-Ektelo-Stale"
)

// Options tunes the router.
type Options struct {
	// ProbeInterval is the health-probe spacing; 0 means 500ms.
	ProbeInterval time.Duration
}

// Router proxies client traffic onto the backends of a static topology.
type Router struct {
	topo     Topology
	ring     *Ring
	backends map[string]*backendState
	order    []string // backend names in topology order
	client   *http.Client
	interval time.Duration

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter builds a router over the topology. Call Start to launch
// background probing (or ProbeOnce for a synchronous sweep); every
// backend starts unready until a probe passes.
func NewRouter(topo Topology, opts Options) (*Router, error) {
	if err := topo.validate(); err != nil {
		return nil, err
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	names := make([]string, len(topo.Backends))
	backends := make(map[string]*backendState, len(topo.Backends))
	for i, b := range topo.Backends {
		names[i] = b.Name
		backends[b.Name] = &backendState{name: b.Name, addr: b.Addr}
	}
	return &Router{
		topo:     topo,
		ring:     NewRing(names),
		backends: backends,
		order:    names,
		client:   &http.Client{Timeout: 30 * time.Second},
		interval: opts.ProbeInterval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// ProbeOnce probes every backend synchronously (startup and tests).
func (r *Router) ProbeOnce() {
	var wg sync.WaitGroup
	for _, name := range r.order {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			probe(r.client, b)
		}(r.backends[name])
	}
	wg.Wait()
}

// Start runs the first probe sweep, then launches the background
// health prober: a caller that opens its listener after Start never
// answers /healthz while still refusing writes as "primary is down".
func (r *Router) Start() {
	r.ProbeOnce()
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.ProbeOnce()
			}
		}
	}()
}

// Close stops the prober (idempotent; safe without Start — the done
// channel is only waited on after a stop signal a running prober sees).
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
}

// Handler returns the router's HTTP surface: the serve API proxied by
// placement, plus /healthz and /v1/cluster/status for the router
// itself.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v1/cluster/status", r.handleClusterStatus)
	mux.HandleFunc("GET /v1/plans", r.handleAnyRead)
	mux.HandleFunc("GET /v1/strategies", r.handleAnyRead)
	mux.HandleFunc("GET /v1/datasets", r.handleList)
	mux.HandleFunc("POST /v1/datasets", r.handleCreate)
	mux.HandleFunc("GET /v1/datasets/{name}", r.handleRead)
	mux.HandleFunc("GET /v1/datasets/{name}/budget", r.handleRead)
	mux.HandleFunc("GET /v1/datasets/{name}/wal", r.handleWrite) // the stream is per-process; only the primary's is canonical
	// Audit endpoints route to the primary like the stream: its signed
	// checkpoints are the ledger of record (a replica's ledger converges
	// to the same root, but its checkpoints are signed by its own key).
	mux.HandleFunc("GET /v1/datasets/{name}/audit/checkpoint", r.handleWrite)
	mux.HandleFunc("GET /v1/datasets/{name}/audit/proof", r.handleWrite)
	mux.HandleFunc("GET /v1/datasets/{name}/audit/consistency", r.handleWrite)
	mux.HandleFunc("POST /v1/datasets/{name}/query", r.handleRead)
	mux.HandleFunc("POST /v1/datasets/{name}/measure", r.handleWrite)
	mux.HandleFunc("POST /v1/datasets/{name}/plan", r.handleWrite)
	return mux
}

func routerErr(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// proxyResult is one fully buffered backend response.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// forward proxies one buffered request to a backend, with accounting.
// A transport failure marks the backend down immediately so the next
// request does not wait out a probe interval to avoid it.
func (r *Router) forward(b *backendState, req *http.Request, body []byte) (proxyResult, error) {
	b.requests.Add(1)
	b.inflight.Add(1)
	start := time.Now()
	defer func() {
		b.inflight.Add(-1)
		b.latencyNS.Add(int64(time.Since(start)))
	}()
	out, err := http.NewRequestWithContext(req.Context(), req.Method, b.addr+req.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		b.errors.Add(1)
		return proxyResult{}, err
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := r.client.Do(out)
	if err != nil {
		b.errors.Add(1)
		b.markDown(err)
		return proxyResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		b.errors.Add(1)
		return proxyResult{}, err
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		b.errors.Add(1)
	}
	return proxyResult{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// writeProxied relays a backend response to the client.
func writeProxied(w http.ResponseWriter, b *backendState, res proxyResult) {
	for _, h := range []string{"Content-Type", serve.HeaderPrimary, serve.HeaderWALEpoch, serve.HeaderWALNext, serve.HeaderGeneration} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HeaderServedBy, b.name)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// errBodyTooLarge refuses a request body over serve.MaxBodyBytes, which
// no backend would accept.
var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", serve.MaxBodyBytes)

// readBody buffers a request body (queries must be resendable for
// retry-on-next-replica), reading at most one byte past the limit.
func readBody(req *http.Request) ([]byte, error) {
	if req.Body == nil {
		return nil, nil
	}
	defer req.Body.Close()
	body, err := io.ReadAll(io.LimitReader(req.Body, serve.MaxBodyBytes+1))
	if err == nil && len(body) > serve.MaxBodyBytes {
		return nil, errBodyTooLarge
	}
	return body, err
}

// bodyErr answers a request whose body readBody refused.
func bodyErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	routerErr(w, status, "read body: %v", err)
}

// owners returns the dataset's owner backends: primary first, then
// replicas in ring order.
func (r *Router) owners(dataset string) []*backendState {
	names := r.ring.Owners(dataset, r.topo.ownersPerDataset())
	out := make([]*backendState, len(names))
	for i, n := range names {
		out[i] = r.backends[n]
	}
	return out
}

// readPlan orders the dataset's ready owners for a read: least
// inflight first while the primary is live; freshest replica first
// (by last probed generation) once it is not. The second return is
// the primary's liveness, the third the primary itself.
func (r *Router) readPlan(dataset string) ([]*backendState, bool, *backendState) {
	owners := r.owners(dataset)
	primary := owners[0]
	primaryReady := primary.isReady()
	ready := make([]*backendState, 0, len(owners))
	for _, b := range owners {
		if b.isReady() {
			ready = append(ready, b)
		}
	}
	if primaryReady {
		sort.SliceStable(ready, func(i, j int) bool {
			return ready[i].inflight.Load() < ready[j].inflight.Load()
		})
	} else {
		sort.SliceStable(ready, func(i, j int) bool {
			gi, gj := ready[i].generation(dataset), ready[j].generation(dataset)
			if gi != gj {
				return gi > gj
			}
			return ready[i].inflight.Load() < ready[j].inflight.Load()
		})
	}
	return ready, primaryReady, primary
}

// retryableRead reports whether a read response is worth retrying on
// the next owner: transport-level failures arrive as errors, and
// 404/409 can mean "this replica has not seen the dataset (or its
// first measurement) yet" while another owner has; 5xx and 421 are
// plainly not answers.
func retryableRead(status int) bool {
	return status == http.StatusNotFound || status == http.StatusConflict ||
		status == http.StatusMisdirectedRequest || status >= http.StatusInternalServerError
}

// handleRead fans a read across the dataset's ready owners with
// retry-on-next.
func (r *Router) handleRead(w http.ResponseWriter, req *http.Request) {
	dataset := req.PathValue("name")
	body, err := readBody(req)
	if err != nil {
		bodyErr(w, err)
		return
	}
	cands, primaryReady, primary := r.readPlan(dataset)
	if len(cands) == 0 {
		routerErr(w, http.StatusServiceUnavailable, "dataset %q: no ready backend (primary %s down)", dataset, primary.name)
		return
	}
	stale := func(b *backendState) {
		if !primaryReady {
			// Explicit staleness: the answer is served without a live
			// primary, from this backend's last known generation.
			w.Header().Set(HeaderStale, "primary-down")
			w.Header().Set(serve.HeaderPrimary, primary.addr)
			w.Header().Set(serve.HeaderGeneration, fmt.Sprintf("%d", b.generation(dataset)))
		}
	}
	var last proxyResult
	var lastB *backendState
	for _, b := range cands {
		res, err := r.forward(b, req, body)
		if err != nil {
			continue
		}
		last, lastB = res, b
		if !retryableRead(res.status) {
			stale(b)
			writeProxied(w, b, res)
			return
		}
	}
	if lastB == nil {
		routerErr(w, http.StatusServiceUnavailable, "dataset %q: every owner failed", dataset)
		return
	}
	// Every owner returned a retryable status; the last answer is as
	// good as any (e.g. a uniform 404 for a dataset that does not exist).
	stale(lastB)
	writeProxied(w, lastB, last)
}

// handleWrite proxies a write to the ring primary alone. No retry, no
// failover: a down primary means writes wait (503) — the router never
// elects a second writer, so budget accounting cannot fork.
func (r *Router) handleWrite(w http.ResponseWriter, req *http.Request) {
	dataset := req.PathValue("name")
	r.writeToPrimary(w, req, dataset)
}

func (r *Router) writeToPrimary(w http.ResponseWriter, req *http.Request, dataset string) {
	primary := r.owners(dataset)[0]
	if !primary.isReady() {
		w.Header().Set(serve.HeaderPrimary, primary.addr)
		routerErr(w, http.StatusServiceUnavailable,
			"dataset %q: primary %s is down; dataset is read-only until it returns", dataset, primary.name)
		return
	}
	body, err := readBody(req)
	if err != nil {
		bodyErr(w, err)
		return
	}
	res, err := r.forward(primary, req, body)
	if err != nil {
		w.Header().Set(serve.HeaderPrimary, primary.addr)
		routerErr(w, http.StatusBadGateway, "dataset %q: primary %s: %v", dataset, primary.name, err)
		return
	}
	writeProxied(w, primary, res)
}

// handleCreate peeks the dataset name out of the create body to place
// it, then forwards the original bytes to the primary.
func (r *Router) handleCreate(w http.ResponseWriter, req *http.Request) {
	body, err := readBody(req)
	if err != nil {
		bodyErr(w, err)
		return
	}
	var peek struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &peek); err != nil || peek.Name == "" {
		routerErr(w, http.StatusBadRequest, "create needs a JSON body with a dataset name")
		return
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	r.writeToPrimary(w, req, peek.Name)
}

// handleAnyRead forwards a dataset-independent read (plans,
// strategies) to the least-loaded ready backend.
func (r *Router) handleAnyRead(w http.ResponseWriter, req *http.Request) {
	ready := make([]*backendState, 0, len(r.order))
	for _, name := range r.order {
		if b := r.backends[name]; b.isReady() {
			ready = append(ready, b)
		}
	}
	sort.SliceStable(ready, func(i, j int) bool {
		return ready[i].inflight.Load() < ready[j].inflight.Load()
	})
	for _, b := range ready {
		res, err := r.forward(b, req, nil)
		if err != nil || res.status >= http.StatusInternalServerError {
			continue
		}
		writeProxied(w, b, res)
		return
	}
	routerErr(w, http.StatusServiceUnavailable, "no ready backend")
}

// handleList merges every ready backend's dataset listing, preferring
// the primary's copy of each dataset (replica rows carry follower
// metadata a client asking "what datasets exist" does not want).
func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	merged := map[string]serve.Summary{}
	gotAny := false
	for _, name := range r.order {
		b := r.backends[name]
		if !b.isReady() {
			continue
		}
		res, err := r.forward(b, req, nil)
		if err != nil || res.status != http.StatusOK {
			continue
		}
		var payload struct {
			Datasets []serve.Summary `json:"datasets"`
		}
		if err := json.Unmarshal(res.body, &payload); err != nil {
			continue
		}
		gotAny = true
		for _, sum := range payload.Datasets {
			prev, seen := merged[sum.Name]
			if !seen || (prev.Follower && !sum.Follower) {
				merged[sum.Name] = sum
			}
		}
	}
	if !gotAny {
		routerErr(w, http.StatusServiceUnavailable, "no ready backend")
		return
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]serve.Summary, len(names))
	for i, n := range names {
		out[i] = merged[n]
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"datasets": out})
}

// ClusterStatus is the router's /v1/cluster/status payload.
type ClusterStatus struct {
	Replicas int             `json:"replicas"`
	Backends []BackendReport `json:"backends"`
	// Placements maps every known dataset to its owner backends, primary
	// first — the ring made visible.
	Placements map[string][]string `json:"placements,omitempty"`
}

// Status reports the router's view of the cluster.
func (r *Router) Status() ClusterStatus {
	st := ClusterStatus{Replicas: r.topo.Replicas, Placements: map[string][]string{}}
	seen := map[string]bool{}
	for _, name := range r.order {
		b := r.backends[name]
		st.Backends = append(st.Backends, b.report())
		b.mu.Lock()
		for ds := range b.datasets {
			seen[ds] = true
		}
		b.mu.Unlock()
	}
	for ds := range seen {
		st.Placements[ds] = r.ring.Owners(ds, r.topo.ownersPerDataset())
	}
	return st
}

func (r *Router) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(r.Status())
}
