package cluster

import (
	"fmt"
	"testing"
)

// primaryOf is the backend owning key: the first point clockwise from
// the key's hash.
func primaryOf(r *Ring, key string) string { return r.Owners(key, 1)[0] }

func TestRingDeterministicPlacement(t *testing.T) {
	names := []string{"a", "b", "c"}
	r1 := NewRing(names)
	r2 := NewRing([]string{"c", "a", "b"}) // input order must not matter
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		if primaryOf(r1, key) != primaryOf(r2, key) {
			t.Fatalf("key %q: placement depends on backend input order", key)
		}
	}
}

func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("ds-%d", i)
		owners := r.Owners(key, 3)
		if len(owners) != 3 {
			t.Fatalf("key %q: %d owners, want 3", key, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner %q in %v", key, o, owners)
			}
			seen[o] = true
		}
		if p := primaryOf(r, key); owners[0] != p {
			t.Fatalf("key %q: Owners(3)[0] %q != Owners(1)[0] %q", key, owners[0], p)
		}
	}
	// Asking for more owners than backends caps at the backend count.
	if got := r.Owners("k", 10); len(got) != 3 {
		t.Fatalf("over-asked owners: %v", got)
	}
}

func TestRingBalance(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	r := NewRing(names)
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[primaryOf(r, fmt.Sprintf("key-%d", i))]++
	}
	// With 64 vnodes per backend the load should be within a loose 2x
	// band of fair share — the point is no backend is starved or doubled.
	fair := keys / len(names)
	for _, n := range names {
		if counts[n] < fair/2 || counts[n] > fair*2 {
			t.Fatalf("backend %q owns %d of %d keys (fair %d): %v", n, counts[n], keys, fair, counts)
		}
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	before := NewRing([]string{"a", "b", "c"})
	after := NewRing([]string{"a", "b", "c", "d"})
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		b, a := primaryOf(before, key), primaryOf(after, key)
		if b != a {
			if a != "d" {
				t.Fatalf("key %q moved %q -> %q, not to the new backend", key, b, a)
			}
			moved++
		}
	}
	// Consistent hashing moves ~1/4 of keys when going 3 -> 4 backends;
	// anything under half is clearly not a full reshuffle.
	if moved == 0 || moved > keys/2 {
		t.Fatalf("%d of %d keys moved adding one backend", moved, keys)
	}
}

func TestTopologyValidate(t *testing.T) {
	good := []byte(`{"replicas":1,"backends":[
		{"name":"a","addr":"http://127.0.0.1:1"},
		{"name":"b","addr":"http://127.0.0.1:2"}]}`)
	topo, err := ParseTopology(good)
	if err != nil {
		t.Fatal(err)
	}
	if topo.ownersPerDataset() != 2 {
		t.Fatalf("ownersPerDataset %d, want 2", topo.ownersPerDataset())
	}
	if _, ok := topo.Backend("b"); !ok {
		t.Fatal("Backend lookup failed")
	}

	bad := [][]byte{
		[]byte(`{"backends":[]}`),
		[]byte(`{"replicas":-1,"backends":[{"name":"a","addr":"http://x"}]}`),
		[]byte(`{"backends":[{"name":"a","addr":"http://x"},{"name":"a","addr":"http://y"}]}`),
		[]byte(`{"backends":[{"name":"a","addr":"http://x"},{"name":"b","addr":"http://x"}]}`),
		[]byte(`{"backends":[{"name":"a","addr":"127.0.0.1:8080"}]}`),
		[]byte(`{"backends":[{"name":"","addr":"http://x"}]}`),
		[]byte(`{"backends":[{"name":"a","addr":"http://x"}],"extra":1}`),
	}
	for i, b := range bad {
		if _, err := ParseTopology(b); err == nil {
			t.Fatalf("bad topology %d accepted: %s", i, b)
		}
	}
}
