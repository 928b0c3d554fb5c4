package cluster

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
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// testCluster is three in-process serve backends ("a", "b", "c") behind
// httptest listeners, each running a follower Manager, plus a Router —
// all driven deterministically with SyncOnce/ProbeOnce instead of
// background tickers.
type testCluster struct {
	topo     Topology
	servers  map[string]*serve.Server
	listen   map[string]*httptest.Server
	managers map[string]*Manager
	router   *Router
	front    *httptest.Server
}

func newTestCluster(t *testing.T, replicas int) *testCluster {
	t.Helper()
	c := &testCluster{
		servers:  map[string]*serve.Server{},
		listen:   map[string]*httptest.Server{},
		managers: map[string]*Manager{},
	}
	names := []string{"a", "b", "c"}
	c.topo = Topology{Replicas: replicas}
	for _, name := range names {
		s := serve.New(serve.Config{BatchWindow: 100 * time.Microsecond})
		ts := httptest.NewServer(s.Handler())
		c.servers[name] = s
		c.listen[name] = ts
		c.topo.Backends = append(c.topo.Backends, Backend{Name: name, Addr: ts.URL})
	}
	for _, name := range names {
		m, err := NewManager(c.servers[name], c.topo, name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.managers[name] = m
	}
	r, err := NewRouter(c.topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	c.front = httptest.NewServer(r.Handler())
	c.sync() // initial probe: the router starts with every backend unproven
	t.Cleanup(func() {
		c.front.Close()
		c.router.Close()
		for _, m := range c.managers {
			m.Close()
		}
		for _, ts := range c.listen {
			ts.Close()
		}
		for _, s := range c.servers {
			s.Close()
		}
	})
	return c
}

// sync runs one probe round on the router and one discovery+tail round
// on every manager — after it, routing tables and replicas are caught
// up with the primaries.
func (c *testCluster) sync() {
	c.router.ProbeOnce()
	for _, m := range c.managers {
		m.SyncOnce()
	}
}

func (c *testCluster) primaryOf(dataset string) string {
	names := make([]string, 0, len(c.topo.Backends))
	for _, b := range c.topo.Backends {
		names = append(names, b.Name)
	}
	return NewRing(names).Owners(dataset, 1)[0]
}

// statusOf returns a dataset's /v1/status row on one server.
func statusOf(t *testing.T, s *serve.Server, dataset string) serve.DatasetStatus {
	t.Helper()
	for _, st := range s.Status().Datasets {
		if st.Name == dataset {
			return st
		}
	}
	t.Fatalf("no status row for %q", dataset)
	return serve.DatasetStatus{}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, data, err)
		}
	}
	return resp
}

type queryResponse struct {
	Answers []float64 `json:"answers"`
	Stderr  []float64 `json:"stderr"`
}

func queryBackend(t *testing.T, base, dataset string) queryResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/datasets/"+dataset+"/query",
		map[string]any{"ranges": [][2]int{{0, 63}, {5, 17}, {30, 30}, {0, 0}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s: %d %s", base, resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestClusterReplicationBitIdentity is the end-to-end tentpole check:
// a dataset created and measured through the router is replicated to
// every ring owner, and each replica answers the same workload
// bit-identically (answers and stderr) to the primary at the same
// generation, with budget spent only on the primary.
func TestClusterReplicationBitIdentity(t *testing.T) {
	c := newTestCluster(t, 2)
	const ds = "census"
	primary := c.primaryOf(ds)

	resp, body := postJSON(t, c.front.URL+"/v1/datasets", map[string]any{
		"name": ds, "kind": "piecewise", "n": 64, "scale": 4000,
		"seed": 7, "eps_total": 10, "solver": "normal",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via router: %d %s", resp.StatusCode, body)
	}
	c.sync() // router learns the dataset; followers appear on the replicas

	resp, body = postJSON(t, c.front.URL+"/v1/datasets/"+ds+"/measure",
		map[string]any{"strategy": "hb", "eps": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure via router: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, c.front.URL+"/v1/datasets/"+ds+"/plan",
		map[string]any{"plan": "DAWA", "eps": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan via router: %d %s", resp.StatusCode, body)
	}
	c.sync() // ship the two commits to the followers

	// Every backend owns the dataset (1 primary + 2 replicas of 3).
	var want queryResponse
	var wantGen uint64
	for _, b := range c.topo.Backends {
		d, ok := c.servers[b.Name].Dataset(ds)
		if !ok {
			t.Fatalf("backend %q has no copy of %q", b.Name, ds)
		}
		sum := d.Summary()
		if b.Name == primary {
			if d.IsFollower() {
				t.Fatalf("primary %q demoted to follower", b.Name)
			}
			if sum.Consumed != 2 {
				t.Fatalf("primary consumed %g, want 2", sum.Consumed)
			}
			wantGen = sum.Generation
			want = queryBackend(t, c.listen[b.Name].URL, ds)
			continue
		}
		if !d.IsFollower() {
			t.Fatalf("replica %q is not a follower", b.Name)
		}
	}
	if wantGen == 0 {
		t.Fatal("primary never measured")
	}
	for _, b := range c.topo.Backends {
		if b.Name == primary {
			continue
		}
		d, _ := c.servers[b.Name].Dataset(ds)
		sum := d.Summary()
		if sum.Generation != wantGen {
			t.Fatalf("replica %q at generation %d, primary at %d", b.Name, sum.Generation, wantGen)
		}
		if sum.Consumed != 2 {
			t.Fatalf("replica %q mirrors consumed %g, want 2", b.Name, sum.Consumed)
		}
		// The replica rebuilt the audit ledger from shipped frames alone;
		// at equal generation its root must equal the primary's.
		pd, _ := c.servers[primary].Dataset(ds)
		psum := pd.Summary()
		if psum.AuditSize == 0 || sum.AuditSize != psum.AuditSize || sum.AuditRoot != psum.AuditRoot {
			t.Fatalf("replica %q audit ledger %d/%s, primary %d/%s",
				b.Name, sum.AuditSize, sum.AuditRoot, psum.AuditSize, psum.AuditRoot)
		}
		if e := statusOf(t, c.servers[b.Name], ds).ReplicationError; e != "" {
			t.Fatalf("replica %q latched replication error: %s", b.Name, e)
		}
		got := queryBackend(t, c.listen[b.Name].URL, ds)
		if !sameBits(got.Answers, want.Answers) {
			t.Fatalf("replica %q answers differ:\nprimary %v\nreplica %v", b.Name, want.Answers, got.Answers)
		}
		if !sameBits(got.Stderr, want.Stderr) {
			t.Fatalf("replica %q stderr differ:\nprimary %v\nreplica %v", b.Name, want.Stderr, got.Stderr)
		}
		// Budget is never spent replica-side: a write straight at the
		// replica (bypassing the router) answers 421 with the primary.
		resp, _ := postJSON(t, c.listen[b.Name].URL+"/v1/datasets/"+ds+"/measure",
			map[string]any{"strategy": "total", "eps": 1})
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("replica %q write: %d, want 421", b.Name, resp.StatusCode)
		}
		if got := resp.Header.Get(serve.HeaderPrimary); got != c.listen[primary].URL {
			t.Fatalf("replica %q advertises primary %q, want %q", b.Name, got, c.listen[primary].URL)
		}
	}

	// Reads through the router succeed and carry the serving backend.
	resp = getJSON(t, c.front.URL+"/v1/datasets/"+ds, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary via router: %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderServedBy) == "" {
		t.Fatalf("router response missing %s", HeaderServedBy)
	}
	if resp.Header.Get(HeaderStale) != "" {
		t.Fatalf("healthy cluster answered stale: %q", resp.Header.Get(HeaderStale))
	}
	qr := queryBackend(t, c.front.URL, ds)
	if !sameBits(qr.Answers, want.Answers) {
		t.Fatal("router-fanned query differs from primary")
	}
}

// TestClusterFailover kills the primary's listener and checks the
// degradation contract: reads keep serving from the freshest replica
// with explicit staleness headers, writes fail 503 naming the primary,
// and no second writer is ever elected.
func TestClusterFailover(t *testing.T) {
	c := newTestCluster(t, 2)
	const ds = "orders"
	primary := c.primaryOf(ds)

	resp, body := postJSON(t, c.front.URL+"/v1/datasets", map[string]any{
		"name": ds, "kind": "piecewise", "n": 64, "scale": 2000,
		"seed": 3, "eps_total": 8, "solver": "normal",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	c.sync()
	resp, body = postJSON(t, c.front.URL+"/v1/datasets/"+ds+"/measure",
		map[string]any{"strategy": "h2", "eps": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d %s", resp.StatusCode, body)
	}
	c.sync()
	healthy := queryBackend(t, c.front.URL, ds)

	// Primary goes away; only the router probes (the dead manager is
	// irrelevant, the survivors must not take over writes).
	c.listen[primary].Close()
	c.router.ProbeOnce()

	resp = getJSON(t, c.front.URL+"/v1/datasets/"+ds, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read with primary down: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderStale); got != "primary-down" {
		t.Fatalf("%s = %q, want primary-down", HeaderStale, got)
	}
	if resp.Header.Get(serve.HeaderGeneration) != "1" {
		t.Fatalf("stale read generation %q, want 1", resp.Header.Get(serve.HeaderGeneration))
	}
	if resp.Header.Get(serve.HeaderPrimary) == "" {
		t.Fatalf("stale read missing %s", serve.HeaderPrimary)
	}
	degraded := queryBackend(t, c.front.URL, ds)
	if !sameBits(degraded.Answers, healthy.Answers) {
		t.Fatal("degraded read changed answers")
	}

	resp, _ = postJSON(t, c.front.URL+"/v1/datasets/"+ds+"/measure",
		map[string]any{"strategy": "total", "eps": 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write with primary down: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(serve.HeaderPrimary) == "" {
		t.Fatalf("write rejection missing %s", serve.HeaderPrimary)
	}

	// The survivors stay followers even after more sync rounds: the
	// cluster never elects a second writer.
	for i := 0; i < 3; i++ {
		for name, m := range c.managers {
			if name != primary {
				m.SyncOnce()
			}
		}
	}
	for _, b := range c.topo.Backends {
		if b.Name == primary {
			continue
		}
		if d, ok := c.servers[b.Name].Dataset(ds); ok && !d.IsFollower() {
			t.Fatalf("backend %q promoted itself to writer", b.Name)
		}
	}
}

// TestRouterReadRetryAndAnyRead: a replica that drops mid-read is
// retried on the next candidate, and un-keyed reads (plan registry,
// dataset list) are served by any ready backend.
func TestRouterReadRetryAndAnyRead(t *testing.T) {
	c := newTestCluster(t, 2)
	const ds = "retryable"
	resp, body := postJSON(t, c.front.URL+"/v1/datasets", map[string]any{
		"name": ds, "kind": "uniform", "n": 32, "scale": 500,
		"seed": 1, "eps_total": 4, "solver": "normal",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, c.front.URL+"/v1/datasets/"+ds+"/measure",
		map[string]any{"strategy": "identity", "eps": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d %s", resp.StatusCode, body)
	}
	c.sync()

	// Kill one replica (not the primary) without reprobing: the router
	// still believes it is ready, forwards, fails, marks it down, and
	// retries the read elsewhere — every read must still answer 200.
	primary := c.primaryOf(ds)
	for _, b := range c.topo.Backends {
		if b.Name != primary {
			c.listen[b.Name].Close()
			break
		}
	}
	for i := 0; i < 4; i++ {
		resp := getJSON(t, c.front.URL+"/v1/datasets/"+ds, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d after silent replica death: %d", i, resp.StatusCode)
		}
	}

	var plansOut struct {
		Plans []json.RawMessage `json:"plans"`
	}
	if resp := getJSON(t, c.front.URL+"/v1/plans", &plansOut); resp.StatusCode != http.StatusOK {
		t.Fatalf("plans via router: %d", resp.StatusCode)
	}
	if len(plansOut.Plans) == 0 {
		t.Fatal("empty plan registry through router")
	}

	var list struct {
		Datasets []serve.Summary `json:"datasets"`
	}
	if resp := getJSON(t, c.front.URL+"/v1/datasets", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list via router: %d", resp.StatusCode)
	}
	found := false
	for _, s := range list.Datasets {
		if s.Name == ds {
			found = true
			if s.Follower {
				t.Fatal("router list preferred a follower row over the primary's")
			}
		}
	}
	if !found {
		t.Fatalf("dataset %q missing from router list: %+v", ds, list)
	}

	var cs ClusterStatus
	if resp := getJSON(t, c.front.URL+"/v1/cluster/status", &cs); resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status: %d", resp.StatusCode)
	}
	if len(cs.Backends) != 3 || cs.Placements[ds] == nil {
		t.Fatalf("cluster status incomplete: %+v", cs)
	}
	if cs.Placements[ds][0] != primary {
		t.Fatalf("placement primary %q, want %q", cs.Placements[ds][0], primary)
	}
}

// TestFollowerManagerCursorAndLag: the manager's per-dataset cursor
// advances with the primary's stream and catches up after falling
// behind several commits.
func TestFollowerManagerCursorAndLag(t *testing.T) {
	c := newTestCluster(t, 2)
	const ds = "lagged"
	primary := c.primaryOf(ds)
	resp, body := postJSON(t, c.listen[primary].URL+"/v1/datasets", map[string]any{
		"name": ds, "kind": "piecewise", "n": 32, "scale": 800,
		"seed": 5, "eps_total": 16, "solver": "normal",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	c.sync()

	var follower string
	for _, b := range c.topo.Backends {
		if b.Name != primary {
			follower = b.Name
			break
		}
	}
	_, off0 := c.managers[follower].Cursor(ds)

	// Several write rounds land on the primary before the follower syncs
	// once: a single tail round must absorb the whole backlog.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, c.listen[primary].URL+"/v1/datasets/"+ds+"/measure",
			map[string]any{"strategy": "identity", "eps": 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("measure %d: %d %s", i, resp.StatusCode, body)
		}
	}
	pd, _ := c.servers[primary].Dataset(ds)
	psum := pd.Summary()
	pOff, pGen := psum.WALOffset, psum.Generation

	c.managers[follower].SyncOnce()
	_, off1 := c.managers[follower].Cursor(ds)
	if off1 <= off0 || off1 != pOff {
		t.Fatalf("cursor %d -> %d, primary offset %d", off0, off1, pOff)
	}
	fd, ok := c.servers[follower].Dataset(ds)
	if !ok {
		t.Fatalf("no follower copy on %q", follower)
	}
	if got := fd.Summary().Generation; got != pGen {
		t.Fatalf("follower generation %d, primary %d", got, pGen)
	}
}

// TestClusterProbeUnderWrite drives router probes, follower syncs and
// summary reads concurrently with a measurement write loop on the
// primary. Under -race this is the probe-path data-race check; it also
// pins that status probes stay cheap (Summary no longer walks the
// kernel history under the dataset lock), so health checks cannot be
// starved by write load.
func TestClusterProbeUnderWrite(t *testing.T) {
	c := newTestCluster(t, 2)
	const ds = "hot"
	primary := c.primaryOf(ds)
	resp, body := postJSON(t, c.listen[primary].URL+"/v1/datasets", map[string]any{
		"name": ds, "kind": "piecewise", "n": 64, "scale": 1000,
		"seed": 2, "eps_total": 1000, "solver": "normal",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	c.sync()

	pd, _ := c.servers[primary].Dataset(ds)
	const rounds = 40
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if _, err := pd.Measure("identity", 0.5); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	probeErr := make(chan error, 8)
	for _, m := range c.managers {
		wg.Add(1)
		go func(m *Manager) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.SyncOnce()
				}
			}
		}(m)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.router.ProbeOnce()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				resp, err := http.Get(c.front.URL + "/v1/datasets/" + ds)
				if err != nil {
					probeErr <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					probeErr <- fmt.Errorf("summary under write load: %d", resp.StatusCode)
					return
				}
			}
		}
	}()

	if err := <-done; err != nil {
		t.Errorf("write loop: %v", err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-probeErr:
		t.Fatal(err)
	default:
	}

	// Quiesced: one last sync lands every commit on the replicas.
	c.sync()
	want := pd.Summary()
	if want.Generation == 0 {
		t.Fatal("no writes landed")
	}
	for _, b := range c.topo.Backends {
		if b.Name == primary {
			continue
		}
		fd, ok := c.servers[b.Name].Dataset(ds)
		if !ok {
			t.Fatalf("no replica on %q", b.Name)
		}
		if got := fd.Summary().Generation; got != want.Generation {
			t.Fatalf("replica %q at generation %d, primary %d", b.Name, got, want.Generation)
		}
	}
}

// TestRouterRefusesOversizedBody: a body over serve.MaxBodyBytes gets
// 413 from the router itself; the backend never sees the request and
// no budget is spent.
func TestRouterRefusesOversizedBody(t *testing.T) {
	s := serve.New(serve.Config{BatchWindow: 100 * time.Microsecond})
	var forwarded atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost {
			forwarded.Add(1)
		}
		s.Handler().ServeHTTP(w, req)
	}))
	r, err := NewRouter(Topology{Backends: []Backend{{Name: "a", Addr: backend.URL}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		front.Close()
		r.Close()
		backend.Close()
		s.Close()
	})
	r.ProbeOnce()
	resp, body := postJSON(t, front.URL+"/v1/datasets", map[string]any{
		"name": "big", "kind": "uniform", "n": 32, "scale": 500, "seed": 1, "eps_total": 4,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	before := forwarded.Load()

	padded := `{"strategy":"identity",` + strings.Repeat(" ", serve.MaxBodyBytes) + `"eps":1}`
	resp, err = http.Post(front.URL+"/v1/datasets/big/measure", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit measure via router: %d %s, want 413", resp.StatusCode, msg)
	}
	if n := forwarded.Load() - before; n != 0 {
		t.Fatalf("router forwarded %d over-limit requests to the backend", n)
	}
	if d, _ := s.Dataset("big"); d.Summary().Consumed != 0 {
		t.Fatalf("over-limit measure spent %v", d.Summary().Consumed)
	}
}
