package serve

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
)

// TestCacheHitSkipsSolveAndPanel is the no-re-solve acceptance check: a
// repeated workload at one measurement-log generation must be answered
// from the cache with *zero* additional panel solves (PanelSolves is
// incremented only inside refreshLocked's solver dispatch) and identical
// values, and a new measurement must invalidate it.
func TestCacheHitSkipsSolveAndPanel(t *testing.T) {
	s := New(Config{BatchWindow: 100 * time.Microsecond})
	defer s.Close()
	d, err := s.CreateDataset("c", "piecewise", 64, 10000, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("hb", 2); err != nil {
		t.Fatal(err)
	}
	wl := []mat.Range1D{{Lo: 0, Hi: 63}, {Lo: 5, Hi: 20}}

	first, err := d.Query(wl)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatalf("first answer claims cached: %+v", first)
	}
	solvesAfterFirst := d.Summary().PanelSolves
	if solvesAfterFirst == 0 {
		t.Fatal("first query did not solve")
	}

	second, err := d.Query(wl)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("repeat workload not served from cache: %+v", second)
	}
	if d.Summary().PanelSolves != solvesAfterFirst {
		t.Fatalf("cache hit re-solved: %d -> %d", solvesAfterFirst, d.Summary().PanelSolves)
	}
	for i := range first.Answers {
		if second.Answers[i] != first.Answers[i] || second.Stderr[i] != first.Stderr[i] {
			t.Fatalf("cached answer differs: %+v vs %+v", second, first)
		}
	}

	// Different workload at the same generation: miss, but still no
	// re-solve (the panel itself is warm via the staleness tracking).
	other, err := d.Query([]mat.Range1D{{Lo: 1, Hi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatalf("different workload claims cached: %+v", other)
	}

	// New measurement: generation bump invalidates; the same workload
	// must re-solve and may answer differently.
	if _, err := d.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	third, err := d.Query(wl)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatalf("post-measurement answer claims cached: %+v", third)
	}
	if got := d.Summary().PanelSolves; got != solvesAfterFirst+1 {
		t.Fatalf("post-invalidation query solved %d times total, want %d", got, solvesAfterFirst+1)
	}
	sum := d.Summary()
	if sum.Cache.Hits != 1 || sum.Cache.Invalidations != 2 {
		// Invalidations: one per Measure call (the warm-up included).
		t.Fatalf("cache stats %+v", sum.Cache)
	}
}

// TestCacheConcurrentClients hammers one dataset with concurrent
// repeated workloads and interleaved measurements under -race: every
// answer must be exact for some log generation, cached answers must
// bit-match an uncached answer of the same workload, and the hit
// counters must add up.
func TestCacheConcurrentClients(t *testing.T) {
	s := New(Config{BatchWindow: 500 * time.Microsecond})
	defer s.Close()
	d, err := s.CreateDataset("cc", "piecewise", 64, 10000, 17, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("hb", 2); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 20
	workloads := [][]mat.Range1D{
		{{Lo: 0, Hi: 63}},
		{{Lo: 0, Hi: 63}, {Lo: 10, Hi: 30}},
		{{Lo: 5, Hi: 6}},
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i%7 == 6 {
					if _, err := d.Measure("identity", 0.5); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				wl := workloads[(c+i)%len(workloads)]
				res, err := d.Query(wl)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Answers) != len(wl) {
					t.Errorf("client %d: %d answers for %d ranges", c, len(res.Answers), len(wl))
					return
				}
				for _, a := range res.Answers {
					if math.IsNaN(a) {
						t.Errorf("client %d: NaN answer", c)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	sum := d.Summary()
	if sum.Cache.Hits == 0 {
		t.Fatal("no cache hits under repeated concurrent workloads")
	}
	if sum.Cache.Invalidations == 0 {
		t.Fatal("interleaved measurements did not invalidate")
	}
	// Even with every invalidation, far fewer solves than queries must
	// have run: at most one per (generation, solver) panel refresh.
	if sum.PanelSolves > int(sum.Generation) {
		t.Fatalf("%d panel solves for %d generations", sum.PanelSolves, sum.Generation)
	}
}

// TestCacheHitSkipsBatcherAndLock pins where a hit is served: on the
// request goroutine, before the batcher, without d.mu. A cached
// workload must answer while another goroutine holds the dataset lock
// (a refresh or commit in progress); a batcher-side lookup would wait
// for the lock.
func TestCacheHitSkipsBatcherAndLock(t *testing.T) {
	// MaxBatch 1: the miss below fills its batch and does not wait out
	// the window.
	s := New(Config{MaxBatch: 1})
	defer s.Close()
	d, err := s.CreateDataset("hit", "piecewise", 64, 10000, 19, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("hb", 2); err != nil {
		t.Fatal(err)
	}
	wl := []mat.Range1D{{Lo: 2, Hi: 50}}
	want, err := d.Query(wl)
	if err != nil {
		t.Fatal(err)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	got := make(chan QueryResult, 1)
	go func() {
		res, err := d.Query(wl)
		if err != nil {
			t.Error(err)
		}
		got <- res
	}()
	select {
	case res := <-got:
		if !res.Cached || res.Answers[0] != want.Answers[0] {
			t.Fatalf("hit under d.mu: %+v, want cached %v", res, want.Answers)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cached workload did not answer while d.mu was held")
	}
}

// TestPanelCacheDropsStaleEpochPut pins the cache's ownership of answer
// validity: an answer computed from a panel whose generation is no
// longer current (a commit landed mid-batch) is never stored, and
// invalidate drops what was stored before it.
func TestPanelCacheDropsStaleEpochPut(t *testing.T) {
	const g = uint64(3)
	c := newPanelCache(g)
	wl := []mat.Range1D{{Lo: 0, Hi: 9}}
	res := QueryResult{Answers: []float64{42}}

	c.put(g, wl, res)
	if got, ok := c.get(wl); !ok || got.Answers[0] != 42 {
		t.Fatalf("put at the current generation not served: %+v %v", got, ok)
	}
	c.invalidate(g + 1)
	if _, ok := c.get(wl); ok {
		t.Fatal("invalidate kept an entry of the old generation")
	}
	c.put(g, wl, res)
	if _, ok := c.get(wl); ok {
		t.Fatal("put at a superseded generation was served")
	}
	if st := c.snapshot(); st.Hits != 1 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheOneLookupPerQuery checks that every Query looks the cache up
// exactly once — on the request goroutine, never again in the batcher —
// across a seeded mix of hits, misses, interleaved measurements and
// concurrent clients: Hits + Misses equals the number of Query calls.
func TestCacheOneLookupPerQuery(t *testing.T) {
	s := New(Config{BatchWindow: 200 * time.Microsecond})
	defer s.Close()
	d, err := s.CreateDataset("once", "piecewise", 128, 10000, 23, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("hb", 2); err != nil {
		t.Fatal(err)
	}
	const clients = 6
	const perClient = 40
	var queries atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(31, uint64(c)))
			for i := 0; i < perClient; i++ {
				if c == 0 && i%10 == 9 {
					if _, err := d.Measure("identity", 0.5); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				// Half the draws repeat one of four workloads, half are
				// fresh single ranges.
				lo := rng.IntN(4)
				hi := 127 - lo
				if rng.IntN(2) == 0 {
					lo = rng.IntN(128)
					hi = lo + rng.IntN(128-lo)
				}
				queries.Add(1)
				if _, err := d.Query([]mat.Range1D{{Lo: lo, Hi: hi}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := d.Summary().Cache
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("mix produced no hits or no misses: %+v", st)
	}
	if got := st.Hits + st.Misses; got != queries.Load() {
		t.Fatalf("%d cache lookups (%+v) for %d queries", got, st, queries.Load())
	}
}
