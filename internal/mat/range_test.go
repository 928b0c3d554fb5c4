package mat

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestRangeQueriesMatchPaperExample(t *testing.T) {
	// Paper Example 7.4: four range queries over a domain of size five.
	ranges := []Range1D{{1, 3}, {3, 4}, {0, 3}, {1, 1}}
	m := RangeQueries(5, ranges)
	want := DenseFromRows([][]float64{
		{0, 1, 1, 1, 0},
		{0, 0, 0, 1, 1},
		{1, 1, 1, 1, 0},
		{0, 1, 0, 0, 0},
	})
	if !Equal(m, want, 1e-12) {
		t.Fatalf("range queries materialize to\n%v", Materialize(m))
	}
}

func TestRangeQueriesEvaluate(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	m := RangeQueries(5, []Range1D{{0, 4}, {2, 2}, {1, 3}})
	got := Mul(m, x)
	want := []float64{15, 3, 9}
	if !vec.AllClose(got, want, 1e-12, 1e-12) {
		t.Fatalf("answers = %v, want %v", got, want)
	}
}

func TestRangeQueriesAbsNoOps(t *testing.T) {
	m := RangeQueries(6, []Range1D{{0, 2}, {3, 5}})
	if Abs(m) != Matrix(m) {
		t.Fatal("range-query abs should be identity (binary matrix)")
	}
	// And they must still equal the dense abs.
	if !Equal(Abs(m), Materialize(m).Abs(), 1e-12) {
		t.Fatal("abs mismatch")
	}
}

func TestRangeQueriesSensitivity(t *testing.T) {
	// Disjoint ranges: each cell in at most one query => sensitivity 1.
	m := RangeQueries(8, []Range1D{{0, 3}, {4, 7}})
	if got := L1Sensitivity(m); got != 1 {
		t.Fatalf("disjoint range sensitivity = %v, want 1", got)
	}
	// Nested ranges covering cell 0 three times.
	m2 := RangeQueries(8, []Range1D{{0, 7}, {0, 3}, {0, 0}})
	if got := L1Sensitivity(m2); got != 3 {
		t.Fatalf("nested range sensitivity = %v, want 3", got)
	}
}

func TestNDRangeQueries2D(t *testing.T) {
	// 3x4 grid, row-major x.
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i + 1)
	}
	m := NDRangeQueries([]int{3, 4}, []RangeND{
		{Lo: []int{0, 0}, Hi: []int{2, 3}}, // whole grid
		{Lo: []int{1, 1}, Hi: []int{2, 2}}, // interior box
		{Lo: []int{0, 0}, Hi: []int{0, 0}}, // single cell
	})
	got := Mul(m, x)
	want := []float64{78, 6 + 7 + 10 + 11, 1}
	if !vec.AllClose(got, want, 1e-12, 1e-12) {
		t.Fatalf("2-D ranges = %v, want %v", got, want)
	}
}

// TestNDRangeQueriesQuick property-tests box evaluation against a brute-
// force loop over the grid.
func TestNDRangeQueriesQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		h, w := 1+rng.IntN(5), 1+rng.IntN(5)
		x := make([]float64, h*w)
		for i := range x {
			x[i] = float64(rng.IntN(10))
		}
		y1, y2 := rng.IntN(h), rng.IntN(h)
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		x1, x2 := rng.IntN(w), rng.IntN(w)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		m := NDRangeQueries([]int{h, w}, []RangeND{{Lo: []int{y1, x1}, Hi: []int{y2, x2}}})
		got := Mul(m, x)[0]
		var want float64
		for i := y1; i <= y2; i++ {
			for j := x1; j <= x2; j++ {
				want += x[i*w+j]
			}
		}
		return got == want || (got-want) < 1e-9 && (want-got) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalRangesBinary(t *testing.T) {
	ranges := HierarchicalRanges(8, 2)
	// Internal nodes of a complete binary tree over 8 leaves: 1+2+4 = 7.
	if len(ranges) != 7 {
		t.Fatalf("got %d internal ranges, want 7: %v", len(ranges), ranges)
	}
	if ranges[0] != (Range1D{Lo: 0, Hi: 7}) {
		t.Fatalf("root = %v", ranges[0])
	}
	// Every range must be a valid sub-interval and children must tile
	// their parent (checked by total coverage per level).
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi > 7 || r.Lo > r.Hi {
			t.Fatalf("invalid range %v", r)
		}
	}
}

func TestHierarchicalRangesNonPowerDomain(t *testing.T) {
	ranges := HierarchicalRanges(10, 3)
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi > 9 || r.Lo > r.Hi {
			t.Fatalf("invalid range %v", r)
		}
	}
	// The root must cover the whole domain.
	if ranges[0] != (Range1D{Lo: 0, Hi: 9}) {
		t.Fatalf("root = %v", ranges[0])
	}
}

func TestRangeQueriesAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var ranges []Range1D
	for i := 0; i < 10; i++ {
		a, b := rng.IntN(12), rng.IntN(12)
		if a > b {
			a, b = b, a
		}
		ranges = append(ranges, Range1D{a, b})
	}
	checkAgainstDense(t, RangeQueries(12, ranges), 4)
}
