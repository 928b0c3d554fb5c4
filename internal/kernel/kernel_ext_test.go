package kernel

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/noise"
)

func TestGroupByStabilityTwo(t *testing.T) {
	tbl := dataset.New(dataset.Schema{{Name: "a", Size: 4}})
	for _, v := range []int{0, 0, 1, 2, 2, 2} {
		tbl.Append(v)
	}
	k, root := InitTable(tbl, 1, noise.NewRand(3))
	g := root.GroupBy("a")
	if g.Stability() != 2 {
		t.Fatalf("GroupBy stability = %v, want 2", g.Stability())
	}
	// A query at ε on the grouped table must charge 2ε at the root.
	if _, err := tableCount(g, 0.25); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.5) > 1e-12 {
		t.Fatalf("root charge = %v, want 0.5", k.Consumed())
	}
}

func TestGroupByDistinctValues(t *testing.T) {
	tbl := dataset.New(dataset.Schema{{Name: "a", Size: 5}})
	for _, v := range []int{4, 4, 1, 1, 1, 3} {
		tbl.Append(v)
	}
	_, root := InitTable(tbl, 100, noise.NewRand(5))
	g := root.GroupBy("a")
	c, err := tableCount(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	// 3 distinct values; huge ε makes the count nearly exact.
	if math.Abs(c-3) > 1 {
		t.Fatalf("distinct count = %v, want ≈3", c)
	}
}

func TestMapToSelfIsIdentity(t *testing.T) {
	_, h := vecKernel([]float64{1, 2, 3}, 1)
	m := mat.Identity(3)
	if h.MapTo(h, m) != m {
		t.Fatal("MapTo(self) must return the matrix unchanged")
	}
}

func TestMapToNonAncestorPanics(t *testing.T) {
	_, h := vecKernel([]float64{1, 2, 3, 4}, 1e6)
	subs := h.SplitByPartition([]int{0, 0, 1, 1}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MapTo between siblings did not panic")
		}
	}()
	subs[0].MapTo(subs[1], mat.Identity(2))
}

func TestMapToIntermediateAncestor(t *testing.T) {
	// root -> reduce A -> reduce B; mapping B's queries to A must produce
	// answers over A's domain, not the root's.
	_, h := vecKernel([]float64{1, 2, 3, 4, 5, 6}, 1e9)
	pa := mat.NewSparse(3, 6, []mat.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 2, Val: 1}, {Row: 1, Col: 3, Val: 1},
		{Row: 2, Col: 4, Val: 1}, {Row: 2, Col: 5, Val: 1},
	})
	a := h.ReduceByPartition(pa)
	pb := mat.NewSparse(1, 3, []mat.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 1},
	})
	b := a.ReduceByPartition(pb)
	mapped := b.MapTo(a, mat.Identity(1))
	_, c := mapped.Dims()
	if c != 3 {
		t.Fatalf("mapped cols = %d, want 3 (A's domain)", c)
	}
	// Evaluated on A's data [3, 7, 11] it must give 21.
	if got := mat.Mul(mapped, []float64{3, 7, 11})[0]; got != 21 {
		t.Fatalf("mapped answer = %v, want 21", got)
	}
	// And mapping all the way to the root gives the same total.
	mappedRoot := b.MapTo(h, mat.Identity(1))
	if got := mat.Mul(mappedRoot, []float64{1, 2, 3, 4, 5, 6})[0]; got != 21 {
		t.Fatalf("root-mapped answer = %v, want 21", got)
	}
}

func TestRemainingTracksConsumption(t *testing.T) {
	k, h := vecKernel([]float64{1, 2}, 2.0)
	if rem := k.EpsTotal() - k.Consumed(); rem != 2.0 {
		t.Fatalf("initial remaining = %v", rem)
	}
	if _, _, err := h.VectorLaplace(mat.Identity(2), 0.5); err != nil {
		t.Fatal(err)
	}
	if rem := k.EpsTotal() - k.Consumed(); math.Abs(rem-1.5) > 1e-12 {
		t.Fatalf("remaining = %v, want 1.5", rem)
	}
}

func TestNoisyMaxSelectsTopScore(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	_, h := vecKernel(x, 1e6)
	hits := 0
	for i := 0; i < 40; i++ {
		idx, err := h.NoisyMax(func(v []float64) []float64 {
			// Score = the value itself; cell 3 dominates.
			return append([]float64(nil), v...)
		}, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 3 {
			hits++
		}
	}
	if hits < 36 {
		t.Fatalf("top score selected %d/40 times", hits)
	}
}

func TestNoisyMaxBudgetAndValidation(t *testing.T) {
	k, h := vecKernel([]float64{1}, 1)
	scores := func(v []float64) []float64 { return []float64{1} }
	if _, err := h.NoisyMax(scores, 0.4, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.4) > 1e-12 {
		t.Fatalf("consumed = %v", k.Consumed())
	}
	if _, err := h.NoisyMax(scores, 0, 1); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := h.NoisyMax(scores, 0.7, 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("budget not enforced")
	}
}

func TestSplitTableByPartitionParallelComposition(t *testing.T) {
	tbl := dataset.New(dataset.Schema{{Name: "a", Size: 4}})
	for _, v := range []int{0, 1, 2, 3, 0, 1} {
		tbl.Append(v)
	}
	k, root := InitTable(tbl, 1.0, noise.NewRand(11))
	subs := root.SplitTableByPartition("a", []int{0, 0, 1, 1}, 2)
	if len(subs) != 2 {
		t.Fatalf("splits = %d", len(subs))
	}
	// Each split carries the right rows.
	c0, err := tableCount(subs[0], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c0-4) > 20 { // values 0,1: four rows (noisy)
		t.Fatalf("split 0 count = %v", c0)
	}
	// Parallel composition: the sibling query at the same ε is free.
	if _, err := tableCount(subs[1], 0.5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.5) > 1e-12 {
		t.Fatalf("root charge = %v, want 0.5 (parallel)", k.Consumed())
	}
}

func TestSplitTableThenVectorize(t *testing.T) {
	// The paper's striped-plan idiom at table level: split, vectorize
	// each part, measure each at full ε.
	tbl := dataset.New(dataset.Schema{{Name: "g", Size: 2}, {Name: "v", Size: 3}})
	tbl.Append(0, 0)
	tbl.Append(0, 2)
	tbl.Append(1, 1)
	k, root := InitTable(tbl, 1.0, noise.NewRand(13))
	subs := root.SplitTableByPartition("g", []int{0, 1}, 2)
	for _, sub := range subs {
		vh := sub.Select("v").Vectorize()
		if _, _, err := vh.VectorLaplace(mat.Identity(3), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(k.Consumed()-1.0) > 1e-12 {
		t.Fatalf("root charge = %v, want 1.0", k.Consumed())
	}
}
