package serve

import (
	"container/list"
	"hash/maphash"
	"sync"

	"repro/internal/mat"
)

// This file implements the workload-aware panel cache: answered query
// workloads are memoized per dataset, keyed by their fingerprint, so a
// repeated workload is answered on the request goroutine — before the
// batcher, without d.mu, zero solver iterations, zero MatMat passes.
//
// The cache alone knows when an answer is valid. It holds the dataset's
// current measurement-log generation: every transition that changes the
// estimate moves the generation forward (invalidate, under d.mu) and
// drops every entry, and an answer computed from a panel of an older
// generation is refused on put, so stale estimates are never served.
// A dataset's solver is fixed at create, so the generation alone names
// the estimate.
//
// Fingerprints are 64-bit hashes of the range workload; because a
// collision would silently serve another workload's answers, every
// entry also stores its exact ranges and a hit requires an exact match.

// workloadSeed makes fingerprints process-local (they never leave the
// process, so stability across runs is not needed).
var workloadSeed = maphash.MakeSeed()

// fingerprintRanges hashes a 1-D range workload.
func fingerprintRanges(ranges []mat.Range1D) uint64 {
	var h maphash.Hash
	h.SetSeed(workloadSeed)
	for _, r := range ranges {
		var buf [16]byte
		putInt64(buf[:8], int64(r.Lo))
		putInt64(buf[8:], int64(r.Hi))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func putInt64(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// sameRanges reports exact workload equality (the collision guard).
func sameRanges(a, b []mat.Range1D) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cacheEntry is one memoized workload answer. Answers/Stderr are stored
// exactly as computed from the generation's estimate panel; batch metadata is
// not cached (it describes the serving path, not the answer).
type cacheEntry struct {
	fp     uint64
	ranges []mat.Range1D
	res    QueryResult
}

// CacheStats is the cache's public counter snapshot, surfaced through
// Summary for observability and tests.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
}

// cacheSize bounds each dataset's answer cache.
const cacheSize = 256

// panelCache is a bounded LRU of answered workloads for one dataset.
type panelCache struct {
	mu      sync.Mutex
	gen     uint64
	entries map[uint64]*list.Element // by fingerprint; values are *cacheEntry
	lru     *list.List               // front = most recent
	stats   CacheStats
}

// newPanelCache returns an empty cache that starts at the given
// generation.
func newPanelCache(gen uint64) *panelCache {
	return &panelCache{gen: gen, entries: map[uint64]*list.Element{}, lru: list.New()}
}

// get returns the memoized answer of the workload at the current generation,
// if present and an exact range match.
func (c *panelCache) get(ranges []mat.Range1D) (QueryResult, bool) {
	fp := fingerprintRanges(ranges)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		if e := el.Value.(*cacheEntry); sameRanges(e.ranges, ranges) {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			return e.res, true
		}
	}
	c.stats.Misses++
	return QueryResult{}, false
}

// put memoizes a workload answered from a panel of the given
// generation, evicting the least recently used entry when full. An
// answer whose generation is no longer current (a commit landed while it
// was computed) is dropped.
func (c *panelCache) put(gen uint64, ranges []mat.Range1D, res QueryResult) {
	fp := fingerprintRanges(ranges)
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	e := &cacheEntry{fp: fp, ranges: append([]mat.Range1D(nil), ranges...), res: res}
	if el, ok := c.entries[fp]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= cacheSize {
		delete(c.entries, c.lru.Remove(c.lru.Back()).(*cacheEntry).fp)
	}
	c.entries[fp] = c.lru.PushFront(e)
}

// invalidate moves the cache to a new generation and drops every entry;
// the dataset calls it, under d.mu, whenever new measurements land.
func (c *panelCache) invalidate(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen = gen
	clear(c.entries)
	c.lru.Init()
	c.stats.Invalidations++
}

// snapshot returns the current counters.
func (c *panelCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
