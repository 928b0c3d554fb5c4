package kernel

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/vec"
)

func vecKernel(x []float64, eps float64) (*Kernel, *Handle) {
	return InitVector(x, eps, noise.NewRand(99))
}

// tableCount measures a table source's row count the way plans do:
// T-Vectorize, then the Laplace-noised total of the count vector.
func tableCount(h *Handle, eps float64) (float64, error) {
	v := h.Vectorize()
	y, _, err := v.VectorLaplace(mat.Total(v.Domain()), eps)
	if err != nil {
		return 0, err
	}
	return y[0], nil
}

func TestBudgetTrackingSimple(t *testing.T) {
	k, h := vecKernel([]float64{1, 2, 3}, 1.0)
	if _, _, err := h.VectorLaplace(mat.Identity(3), 0.4); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.4) > 1e-12 {
		t.Fatalf("consumed = %v", k.Consumed())
	}
	if _, _, err := h.VectorLaplace(mat.Identity(3), 0.6); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.VectorLaplace(mat.Identity(3), 0.01); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
}

func TestBudgetExactlyExhaustible(t *testing.T) {
	_, h := vecKernel([]float64{1}, 1.0)
	for i := 0; i < 10; i++ {
		if _, _, err := h.VectorLaplace(mat.Identity(1), 0.1); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	if _, _, err := h.VectorLaplace(mat.Identity(1), 0.05); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("budget overrun permitted")
	}
}

func TestStabilityScalesBudget(t *testing.T) {
	// A 2-stable transform doubles the root charge.
	k, h := vecKernel([]float64{1, 2}, 1.0)
	two := mat.Scaled(2, mat.Identity(2)) // L1 column norm 2 => 2-stable
	d := h.Transform(two)
	if d.Stability() != 2 {
		t.Fatalf("stability = %v", d.Stability())
	}
	if _, _, err := d.VectorLaplace(mat.Identity(2), 0.3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.6) > 1e-12 {
		t.Fatalf("root charge = %v, want 0.6", k.Consumed())
	}
}

func TestPartitionParallelComposition(t *testing.T) {
	// Querying disjoint partitions each at ε must charge the root only
	// max(ε), not the sum (paper Algorithm 2).
	k, h := vecKernel([]float64{1, 2, 3, 4}, 1.0)
	subs := h.SplitByPartition([]int{0, 0, 1, 1}, 2)
	if _, _, err := subs[0].VectorLaplace(mat.Identity(2), 0.5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.5) > 1e-12 {
		t.Fatalf("after first child: %v", k.Consumed())
	}
	if _, _, err := subs[1].VectorLaplace(mat.Identity(2), 0.5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.5) > 1e-12 {
		t.Fatalf("parallel composition violated: root charge %v, want 0.5", k.Consumed())
	}
	// A second round on one child raises the max.
	if _, _, err := subs[0].VectorLaplace(mat.Identity(2), 0.3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.8) > 1e-12 {
		t.Fatalf("after second round: %v, want 0.8", k.Consumed())
	}
}

func TestPartitionBudgetCannotExceedTotal(t *testing.T) {
	_, h := vecKernel([]float64{1, 2, 3, 4}, 1.0)
	subs := h.SplitByPartition([]int{0, 1, 0, 1}, 2)
	if _, _, err := subs[0].VectorLaplace(mat.Identity(2), 0.9); err != nil {
		t.Fatal(err)
	}
	if _, _, err := subs[1].VectorLaplace(mat.Identity(2), 1.2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("child exceeded global budget")
	}
	// But 0.9 on the sibling still fits (max stays 0.9).
	if _, _, err := subs[1].VectorLaplace(mat.Identity(2), 0.9); err != nil {
		t.Fatal(err)
	}
}

func TestSensitivityAutoCalibration(t *testing.T) {
	// Prefix(n) has sensitivity n: with ε=1 the noise scale must be n.
	_, h := vecKernel(make([]float64, 8), 10)
	_, scale, err := h.VectorLaplace(mat.Prefix(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 8 {
		t.Fatalf("noise scale = %v, want 8", scale)
	}
}

func TestVectorLaplaceUnbiased(t *testing.T) {
	x := []float64{100, 200, 300, 400}
	_, h := vecKernel(x, 1e6)
	n := 400
	sum := make([]float64, 4)
	for i := 0; i < n; i++ {
		y, _, err := h.VectorLaplace(mat.Identity(4), 1000)
		if err != nil {
			t.Fatal(err)
		}
		vec.Axpy(1, y, sum)
	}
	for i := range sum {
		if math.Abs(sum[i]/float64(n)-x[i]) > 1 {
			t.Fatalf("biased mean[%d] = %v, want %v", i, sum[i]/float64(n), x[i])
		}
	}
}

func TestTableFlow(t *testing.T) {
	tbl := dataset.New(dataset.Schema{{Name: "a", Size: 2}, {Name: "b", Size: 3}})
	tbl.Append(0, 0)
	tbl.Append(1, 2)
	tbl.Append(1, 1)
	k, root := InitTable(tbl, 1, noise.NewRand(5))
	filtered := root.Where(dataset.Predicate{dataset.Eq("a", 1)})
	proj := filtered.Select("b")
	v := proj.Vectorize()
	if v.Domain() != 3 {
		t.Fatalf("domain = %d", v.Domain())
	}
	if _, _, err := v.VectorLaplace(mat.Identity(3), 0.5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.5) > 1e-12 {
		t.Fatalf("consumed = %v", k.Consumed())
	}
}

func TestNoisyCountBudget(t *testing.T) {
	tbl := dataset.New(dataset.Schema{{Name: "a", Size: 2}})
	for i := 0; i < 100; i++ {
		tbl.Append(i % 2)
	}
	k, root := InitTable(tbl, 1, noise.NewRand(7))
	c, err := tableCount(root, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-100) > 50 {
		t.Fatalf("noisy count = %v, far from 100", c)
	}
	if k.Consumed() != 0.5 {
		t.Fatalf("consumed = %v", k.Consumed())
	}
	if _, err := tableCount(root, 0.6); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("budget not enforced for a table count")
	}
}

func TestReduceByPartitionValues(t *testing.T) {
	_, h := vecKernel([]float64{1, 2, 3, 4, 5}, 1e10)
	p := mat.NewSparse(2, 5, []mat.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 2, Val: 1}, {Row: 1, Col: 3, Val: 1}, {Row: 1, Col: 4, Val: 1},
	})
	r := h.ReduceByPartition(p)
	if r.Domain() != 2 {
		t.Fatalf("reduced domain = %d", r.Domain())
	}
	// Exact recovery through a huge-ε measurement.
	y, _, err := r.VectorLaplace(mat.Identity(2), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-3) > 1e-3 || math.Abs(y[1]-12) > 1e-3 {
		t.Fatalf("reduced values = %v, want [3 12]", y)
	}
}

func TestLineageMapsToRoot(t *testing.T) {
	_, h := vecKernel([]float64{1, 2, 3, 4}, 10)
	p := mat.NewSparse(2, 4, []mat.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 2, Val: 1}, {Row: 1, Col: 3, Val: 1},
	})
	r := h.ReduceByPartition(p)
	m := mat.Identity(2)
	mapped := r.MapToRoot(m)
	_, c := mapped.Dims()
	if c != 4 {
		t.Fatalf("mapped cols = %d, want 4", c)
	}
	// Mapped queries applied to the root data must equal queries on the
	// reduced data.
	got := mat.Mul(mapped, []float64{1, 2, 3, 4})
	if math.Abs(got[0]-3) > 1e-12 || math.Abs(got[1]-7) > 1e-12 {
		t.Fatalf("mapped answers = %v", got)
	}
}

func TestLineageChainsThroughSplit(t *testing.T) {
	_, h := vecKernel([]float64{1, 2, 3, 4, 5, 6}, 10)
	subs := h.SplitByPartition([]int{0, 0, 0, 1, 1, 1}, 2)
	// Reduce the second split to one group.
	p := mat.NewSparse(1, 3, []mat.Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 1}})
	r := subs[1].ReduceByPartition(p)
	mapped := r.MapToRoot(mat.Identity(1))
	got := mat.Mul(mapped, []float64{1, 2, 3, 4, 5, 6})
	if got[0] != 15 {
		t.Fatalf("chained lineage answer = %v, want 15", got[0])
	}
}

func TestWorstApproxSelectsWorstQuery(t *testing.T) {
	// Query 1's estimate is wildly wrong; it must usually be selected.
	x := []float64{100, 0, 0, 0}
	_, h := vecKernel(x, 1e6)
	w := mat.RangeQueries(4, []mat.Range1D{{Lo: 0, Hi: 0}, {Lo: 1, Hi: 1}, {Lo: 2, Hi: 2}})
	est := []float64{0, 0, 0, 0} // query 0 is off by 100
	hits := 0
	for i := 0; i < 50; i++ {
		idx, err := h.WorstApprox(w, est, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 0 {
			hits++
		}
	}
	if hits < 45 {
		t.Fatalf("worst query selected %d/50 times", hits)
	}
}

func TestWorstApproxConsumesBudget(t *testing.T) {
	k, h := vecKernel([]float64{1, 2}, 1)
	w := mat.RangeQueries(2, []mat.Range1D{{Lo: 0, Hi: 0}, {Lo: 1, Hi: 1}})
	if _, err := h.WorstApprox(w, []float64{0, 0}, 0.25, 1); err != nil {
		t.Fatal(err)
	}
	if k.Consumed() != 0.25 {
		t.Fatalf("consumed = %v", k.Consumed())
	}
}

func TestSplitPreservesData(t *testing.T) {
	x := []float64{5, 6, 7, 8}
	_, h := vecKernel(x, 1e9)
	subs := h.SplitByPartition([]int{1, 0, 1, 0}, 2)
	y0, _, _ := subs[0].VectorLaplace(mat.Identity(2), 1e8)
	y1, _, _ := subs[1].VectorLaplace(mat.Identity(2), 1e8)
	// Group 0: cells 1, 3 = {6, 8}; group 1: cells 0, 2 = {5, 7}.
	if math.Abs(y0[0]-6) > 1e-3 || math.Abs(y0[1]-8) > 1e-3 {
		t.Fatalf("group 0 = %v", y0)
	}
	if math.Abs(y1[0]-5) > 1e-3 || math.Abs(y1[1]-7) > 1e-3 {
		t.Fatalf("group 1 = %v", y1)
	}
}

func TestInvalidEpsilonRejected(t *testing.T) {
	_, h := vecKernel([]float64{1}, 1)
	if _, _, err := h.VectorLaplace(mat.Identity(1), 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, _, err := h.VectorLaplace(mat.Identity(1), -1); err == nil {
		t.Fatal("eps<0 accepted")
	}
}

func TestHistoryRecorded(t *testing.T) {
	k, h := vecKernel([]float64{1, 2}, 1)
	_, _, _ = h.VectorLaplace(mat.Identity(2), 0.1)
	_, _, _ = h.VectorLaplace(mat.Total(2), 0.2)
	hist := k.History()
	if len(hist) != 2 || hist[0].Epsilon != 0.1 || hist[1].Epsilon != 0.2 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestBudgetDenialIsStateless(t *testing.T) {
	// A denied request must not consume budget.
	k, h := vecKernel([]float64{1}, 1)
	_, _, _ = h.VectorLaplace(mat.Identity(1), 0.9)
	if _, _, err := h.VectorLaplace(mat.Identity(1), 0.5); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("expected denial")
	}
	if math.Abs(k.Consumed()-0.9) > 1e-12 {
		t.Fatalf("denied request consumed budget: %v", k.Consumed())
	}
	// The remaining 0.1 is still usable.
	if _, _, err := h.VectorLaplace(mat.Identity(1), 0.1); err != nil {
		t.Fatal("remaining budget unusable")
	}
}
