package cluster

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// Manager is the replica side of the cluster tier, run inside every
// serve process given -topology/-self: it watches the other backends'
// /v1/status, and for every dataset whose ring placement makes this
// process a replica it (1) creates a local follower dataset from the
// primary's public metadata — domain, budget, seed, solver, damping;
// never any raw data, since queries are pure post-processing over the
// measurement log — and (2) tails the primary's replication stream,
// applying shipped frames through serve.(*Dataset).ApplyWALStream (the
// strict replay path). Placement is trusted only when the ring agrees:
// a dataset reported by a backend that is not its ring primary is
// ignored, so a stale or misconfigured process cannot recruit
// followers.
//
// The tail cursor is (epoch, offset) per dataset. An epoch change or a
// 416 from the tail endpoint means the primary restarted its stream;
// the follower resets to offset zero and re-applies — harmless, since
// replay is idempotent (generation-guarded measurement records,
// absolute budget values).

// followCursor is one dataset's position in its primary's stream.
type followCursor struct {
	epoch  uint64
	offset int64
}

// Manager keeps this process's follower datasets in sync.
type Manager struct {
	srv      *serve.Server
	topo     Topology
	self     Backend
	ring     *Ring
	client   *http.Client
	interval time.Duration

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mu      sync.Mutex
	cursors map[string]followCursor
}

// NewManager builds the follower manager for the named backend of the
// topology (the process it runs in). Options.ProbeInterval is the sync
// spacing (0: 200ms).
func NewManager(srv *serve.Server, topo Topology, self string, opts Options) (*Manager, error) {
	if err := topo.validate(); err != nil {
		return nil, err
	}
	sb, ok := topo.Backend(self)
	if !ok {
		return nil, fmt.Errorf("cluster: -self %q is not in the topology", self)
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 200 * time.Millisecond
	}
	names := make([]string, len(topo.Backends))
	for i, b := range topo.Backends {
		names[i] = b.Name
	}
	return &Manager{
		srv:      srv,
		topo:     topo,
		self:     sb,
		ring:     NewRing(names),
		client:   &http.Client{Timeout: 30 * time.Second},
		interval: opts.ProbeInterval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		cursors:  map[string]followCursor{},
	}, nil
}

// Start launches the background sync loop.
func (m *Manager) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			m.SyncOnce()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// Close stops the sync loop.
func (m *Manager) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
}

// SyncOnce runs one discovery + tail pass over every other backend.
// Exported so tests and single-shot tools can drive replication
// deterministically, without the loop's timing.
func (m *Manager) SyncOnce() {
	for _, b := range m.topo.Backends {
		if b.Name == m.self.Name {
			continue
		}
		datasets, err := fetchStatus(m.client, b.Addr)
		if err != nil {
			continue // down or unreachable; the next pass retries
		}
		for _, ds := range datasets {
			if ds.Follower {
				// Only primaries seed replication — chaining discovery off
				// another replica could outlive the real primary's dataset.
				continue
			}
			m.syncDataset(b, ds)
		}
	}
}

// syncDataset ensures a local follower exists for one primary dataset
// and tails its stream, when the ring places this process as a replica.
func (m *Manager) syncDataset(primary Backend, ds serve.DatasetStatus) {
	owners := m.ring.Owners(ds.Name, m.topo.ownersPerDataset())
	if owners[0] != primary.Name {
		return // the ring does not make that backend the writer; ignore
	}
	replica := false
	for _, o := range owners[1:] {
		if o == m.self.Name {
			replica = true
			break
		}
	}
	if !replica {
		return
	}
	d, ok := m.srv.Dataset(ds.Name)
	if !ok {
		var err error
		d, err = m.srv.CreateFollower(ds.Name, ds.Domain, ds.EpsTotal, ds.Seed, ds.Solver, ds.Damping, primary.Addr)
		if err != nil {
			log.Printf("cluster: %s: create follower %q of %s: %v", m.self.Name, ds.Name, primary.Name, err)
			return
		}
	}
	if !d.IsFollower() {
		// A primary copy already lives here (e.g. the topology changed
		// under a process that was the writer). Never silently demote it —
		// that requires an operator restart with the new topology.
		log.Printf("cluster: %s: dataset %q exists locally as a primary; not following %s", m.self.Name, ds.Name, primary.Name)
		return
	}
	if err := m.tailOnce(primary, d); err != nil {
		log.Printf("cluster: %s: tail %q from %s: %v", m.self.Name, ds.Name, primary.Name, err)
		return
	}
	// Out-of-band ledger convergence check, complementing the in-band
	// audit-checkpoint frames the stream itself carries: at equal
	// measurement generation the follower's independently rebuilt audit
	// root must equal the root the primary reported in /v1/status. A
	// mismatch latches the sticky replication error the status endpoint
	// surfaces.
	if sum := d.Summary(); ds.AuditRoot != "" && sum.Generation == ds.Generation && sum.AuditRoot != ds.AuditRoot {
		d.MarkReplicationDivergence(ds.AuditRoot, sum.Generation)
		log.Printf("cluster: %s: dataset %q: audit root %s diverges from primary %s at generation %d",
			m.self.Name, ds.Name, sum.AuditRoot, ds.AuditRoot, sum.Generation)
	}
}

// Cursor reports the follower's stream position for a dataset (zero
// values when it has never tailed it) — lag observability for the
// bench and tests.
func (m *Manager) Cursor(dataset string) (epoch uint64, offset int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.cursors[dataset]
	return c.epoch, c.offset
}

func (m *Manager) setCursor(dataset string, c followCursor) {
	m.mu.Lock()
	m.cursors[dataset] = c
	m.mu.Unlock()
}

// tailOnce fetches and applies the primary's stream from the current
// cursor. The second attempt exists for the reset path: an epoch
// change or out-of-range offset rewinds to zero and refetches
// immediately instead of waiting a full sync interval.
func (m *Manager) tailOnce(primary Backend, d *serve.Dataset) error {
	name := d.Summary().Name
	m.mu.Lock()
	cur := m.cursors[name]
	m.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		tailURL := primary.Addr + "/v1/datasets/" + url.PathEscape(name) + "/wal?from=" + strconv.FormatInt(cur.offset, 10)
		resp, err := m.client.Get(tailURL)
		if err != nil {
			return err
		}
		epoch, _ := strconv.ParseUint(resp.Header.Get(serve.HeaderWALEpoch), 10, 64)
		next, _ := strconv.ParseInt(resp.Header.Get(serve.HeaderWALNext), 10, 64)
		if resp.StatusCode == http.StatusRequestedRangeNotSatisfiable ||
			(cur.offset > 0 && epoch != 0 && epoch != cur.epoch) {
			// The stream restarted (primary process restart): our offset
			// belongs to a dead epoch. Rewind and re-apply from zero —
			// idempotent replay makes the overlap a no-op.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cur = followCursor{}
			m.setCursor(name, cur)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return fmt.Errorf("wal tail: %s", resp.Status)
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		if err != nil {
			return err
		}
		if _, err := d.ApplyWALStream(data); err != nil {
			return err
		}
		m.setCursor(name, followCursor{epoch: epoch, offset: next})
		return nil
	}
	return fmt.Errorf("wal tail: stream for %q kept resetting", name)
}
