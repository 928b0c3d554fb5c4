package kernel

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// These tests verify the paper's Algorithm 2 bookkeeping at every node
// of the transformation graph, using the Nodes() snapshot: B(sv) on
// intermediate nodes, the partition variable's max-of-children budget,
// and stability multiplication along chains.

func budgetOf(k *Kernel, h *Handle) float64 {
	for _, n := range k.Nodes() {
		if n.ID == h.ID() {
			return n.Budget
		}
	}
	panic("node not found")
}

func partitionNodeBudget(k *Kernel) (float64, bool) {
	for _, n := range k.Nodes() {
		if n.Kind == "partition" {
			return n.Budget, true
		}
	}
	return 0, false
}

func TestPerNodeBudgetsSimpleChain(t *testing.T) {
	k, root := vecKernel([]float64{1, 2, 3, 4}, 10)
	p := mat.NewSparse(2, 4, []mat.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 2, Val: 1}, {Row: 1, Col: 3, Val: 1},
	})
	r := root.ReduceByPartition(p)
	if _, _, err := r.VectorLaplace(mat.Identity(2), 0.3); err != nil {
		t.Fatal(err)
	}
	// The queried node records 0.3, and the 1-stable edge forwards 0.3
	// to the root.
	if got := budgetOf(k, r); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("B(reduced) = %v, want 0.3", got)
	}
	if got := budgetOf(k, root); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("B(root) = %v, want 0.3", got)
	}
}

func TestPartitionVariableTracksMaxChild(t *testing.T) {
	k, root := vecKernel([]float64{1, 2, 3, 4, 5, 6}, 10)
	subs := root.SplitByPartition([]int{0, 0, 1, 1, 2, 2}, 3)
	mustQuery := func(h *Handle, eps float64) {
		if _, _, err := h.VectorLaplace(mat.Identity(2), eps); err != nil {
			t.Fatal(err)
		}
	}
	mustQuery(subs[0], 0.2)
	mustQuery(subs[1], 0.5)
	mustQuery(subs[2], 0.1)
	pb, ok := partitionNodeBudget(k)
	if !ok {
		t.Fatal("no partition variable in the graph")
	}
	// Algorithm 2: the partition variable's budget is the running max of
	// its children's totals.
	if math.Abs(pb-0.5) > 1e-12 {
		t.Fatalf("B(partition) = %v, want 0.5", pb)
	}
	if math.Abs(budgetOf(k, root)-0.5) > 1e-12 {
		t.Fatalf("B(root) = %v, want 0.5", budgetOf(k, root))
	}
	// Raising a cheaper child up to the max costs nothing extra...
	mustQuery(subs[2], 0.4)
	if math.Abs(budgetOf(k, root)-0.5) > 1e-12 {
		t.Fatalf("B(root) after filling = %v, want 0.5", budgetOf(k, root))
	}
	// ...and beyond it, only the increment is charged.
	mustQuery(subs[0], 0.5) // child 0 total: 0.7
	if math.Abs(budgetOf(k, root)-0.7) > 1e-9 {
		t.Fatalf("B(root) after exceeding = %v, want 0.7", budgetOf(k, root))
	}
}

func TestStabilityChainsMultiply(t *testing.T) {
	// Two stacked 2-stable transforms: a query at ε charges 4ε upstream.
	k, root := vecKernel([]float64{1, 2}, 10)
	double := mat.Scaled(2, mat.Identity(2))
	a := root.Transform(double)
	b := a.Transform(double)
	if _, _, err := b.VectorLaplace(mat.Identity(2), 0.1); err != nil {
		t.Fatal(err)
	}
	if got := budgetOf(k, b); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("B(b) = %v", got)
	}
	if got := budgetOf(k, a); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("B(a) = %v, want 0.2", got)
	}
	if got := budgetOf(k, root); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("B(root) = %v, want 0.4", got)
	}
}

func TestNodesSnapshotShape(t *testing.T) {
	k, root := vecKernel([]float64{1, 2, 3, 4}, 1)
	subs := root.SplitByPartition([]int{0, 1, 0, 1}, 2)
	nodes := k.Nodes()
	// root + dummy + 2 children.
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	if nodes[0].Kind != "vector" || nodes[0].Parent != -1 || nodes[0].Domain != 4 {
		t.Fatalf("root state = %+v", nodes[0])
	}
	if nodes[1].Kind != "partition" {
		t.Fatalf("dummy state = %+v", nodes[1])
	}
	if nodes[subs[0].ID()].Domain != 2 {
		t.Fatalf("child state = %+v", nodes[subs[0].ID()])
	}
}

// TestRestoreConsumedIsAbsolute pins the restore contract replay and
// replicas rely on: the root takes the recorded total bit for bit (from
// 2.6779935278797153, adding the difference would land one ulp above
// 7.842798517674207), a lower total is a no-op, consecutive restores
// read as one history record, and NaN, negative or over-budget totals
// are refused without moving anything.
func TestRestoreConsumedIsAbsolute(t *testing.T) {
	const first, total = 2.6779935278797153, 7.842798517674207
	k, root := vecKernel([]float64{1, 2, 3, 4}, 10)
	for _, v := range []float64{first, 2, total} {
		if err := k.RestoreConsumed(v); err != nil {
			t.Fatal(err)
		}
	}
	if c := k.Consumed(); c != total {
		t.Fatalf("consumed %v, want exactly %v", c, total)
	}
	if n := k.HistoryLen(); n != 1 {
		t.Fatalf("%d history records after consecutive restores, want 1", n)
	}
	if _, _, err := root.VectorLaplace(mat.Identity(4), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := k.RestoreConsumed(9); err != nil {
		t.Fatal(err)
	}
	if c, n := k.Consumed(), k.HistoryLen(); c != 9 || n != 3 {
		t.Fatalf("after a charge and a restore: consumed %v, %d history records; want 9, 3", c, n)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1, 10.5} {
		if err := k.RestoreConsumed(bad); err == nil {
			t.Fatalf("RestoreConsumed(%v) accepted", bad)
		}
	}
	if c := k.Consumed(); c != 9 {
		t.Fatalf("refused restores moved consumed to %v", c)
	}
}
