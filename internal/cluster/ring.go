package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// The consistent-hash ring: every backend name is hashed at vnodes
// points onto a 64-bit circle, and a dataset's owners are the first
// distinct backends clockwise from the hash of its name — the primary
// first, replicas after. Virtual nodes smooth the load split (with one
// point per backend, a 3-node ring can easily land 70% of keys on one
// backend); 64 points each brings the per-backend share within a few
// percent of uniform while keeping ring construction trivial. Adding
// or removing one backend moves only the keys in its arcs — the
// property that makes a static-topology cluster rebalance gently when
// the topology file gains a node between restarts.

// vnodes is fixed, not configurable: the router and every member's
// follower manager must compute the same ring, or they disagree on
// placement.
const vnodes = 64

type ringPoint struct {
	hash uint64
	name string
}

// Ring is an immutable consistent-hash ring over backend names.
type Ring struct {
	points []ringPoint
	names  []string
}

// NewRing builds a ring with vnodes virtual points per backend. Names
// must be non-empty and unique (Topology.validate enforces it
// upstream).
func NewRing(names []string) *Ring {
	r := &Ring{
		points: make([]ringPoint, 0, len(names)*vnodes),
		names:  append([]string(nil), names...),
	}
	for _, name := range names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(name + "#" + strconv.Itoa(i)), name: name})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare at 64 bits, but placement must be a
		// total order regardless): break by name so every process computes
		// the same ring.
		return r.points[i].name < r.points[j].name
	})
	return r
}

// hash64 is FNV-1a with a splitmix64 finalizer. Raw FNV-1a avalanches
// poorly on short keys ("a#12"-style vnode labels differ only in their
// tail), which clusters ring points badly enough that one backend of
// five can own over half the keyspace; the finalizer spreads the bits.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owners returns the first n distinct backends clockwise from the
// key's hash: index 0 is the primary, the rest are its replicas in
// ring order. n is capped at the backend count.
func (r *Ring) Owners(key string, n int) []string {
	if n > len(r.names) {
		n = len(r.names)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}
