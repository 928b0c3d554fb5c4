package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleTable() *Table {
	t := New(Schema{{Name: "age", Size: 3}, {Name: "sex", Size: 2}})
	t.Append(0, 0)
	t.Append(0, 1)
	t.Append(1, 0)
	t.Append(2, 1)
	t.Append(2, 1)
	return t
}

func TestSchemaDomainAndStrides(t *testing.T) {
	s := Schema{{Name: "a", Size: 4}, {Name: "b", Size: 3}, {Name: "c", Size: 2}}
	if s.DomainSize() != 24 {
		t.Fatalf("DomainSize = %d", s.DomainSize())
	}
	strides := s.Strides()
	if strides[0] != 6 || strides[1] != 2 || strides[2] != 1 {
		t.Fatalf("Strides = %v", strides)
	}
	if s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Fatal("Index lookup wrong")
	}
}

func TestAppendValidates(t *testing.T) {
	tbl := New(Schema{{Name: "a", Size: 2}})
	for _, fn := range []func(){
		func() { tbl.Append(2) },    // out of domain
		func() { tbl.Append(-1) },   // negative
		func() { tbl.Append(0, 1) }, // arity
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestWhere(t *testing.T) {
	tbl := sampleTable()
	got := tbl.Where(Predicate{Eq("sex", 1)})
	if got.NumRows() != 3 {
		t.Fatalf("Where rows = %d, want 3", got.NumRows())
	}
	got2 := tbl.Where(Predicate{{Attr: "age", Lo: 1, Hi: 2}, Eq("sex", 1)})
	if got2.NumRows() != 2 {
		t.Fatalf("conjunction rows = %d, want 2", got2.NumRows())
	}
}

func TestSelect(t *testing.T) {
	tbl := sampleTable()
	got := tbl.Select("sex")
	if len(got.Schema()) != 1 || got.Schema()[0].Name != "sex" {
		t.Fatalf("Select schema = %v", got.Schema())
	}
	if got.NumRows() != 5 {
		t.Fatalf("Select rows = %d (bag semantics expected)", got.NumRows())
	}
}

func TestVectorize(t *testing.T) {
	tbl := sampleTable()
	x := tbl.Vectorize()
	if len(x) != 6 {
		t.Fatalf("vector length = %d", len(x))
	}
	// (age=0,sex=0) -> idx 0; (0,1) -> 1; (1,0) -> 2; (2,1) -> 5 twice.
	want := []float64{1, 1, 1, 0, 0, 2}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	// Mass conservation.
	var total float64
	for _, v := range x {
		total += v
	}
	if total != float64(tbl.NumRows()) {
		t.Fatal("vectorize lost mass")
	}
}

func TestHistogram(t *testing.T) {
	tbl := sampleTable()
	h := tbl.Select("age").Vectorize()
	if h[0] != 2 || h[1] != 1 || h[2] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestSplitByPartition(t *testing.T) {
	tbl := sampleTable()
	// Group ages {0,1} -> 0, {2} -> 1.
	parts := tbl.SplitByPartition("age", []int{0, 0, 1}, 2)
	if parts[0].NumRows() != 3 || parts[1].NumRows() != 2 {
		t.Fatalf("split sizes = %d, %d", parts[0].NumRows(), parts[1].NumRows())
	}
	// Rows are disjoint and complete.
	if parts[0].NumRows()+parts[1].NumRows() != tbl.NumRows() {
		t.Fatal("split lost rows")
	}
}

func TestSplitByPartitionDrops(t *testing.T) {
	tbl := sampleTable()
	parts := tbl.SplitByPartition("age", []int{-1, 0, -1}, 1)
	if parts[0].NumRows() != 1 {
		t.Fatalf("drop split rows = %d, want 1", parts[0].NumRows())
	}
}

// Property: Where(p) preserves the schema and never invents rows.
func TestWhereQuick(t *testing.T) {
	f := func(seed uint64, loRaw, hiRaw uint8) bool {
		tbl := Census(seed%16 + 1)
		lo := int(loRaw) % 5
		hi := int(hiRaw) % 5
		if lo > hi {
			lo, hi = hi, lo
		}
		sub := tbl.Where(Predicate{{Attr: "age", Lo: lo, Hi: hi}})
		if sub.NumRows() > tbl.NumRows() {
			return false
		}
		for _, v := range sub.Column("age") {
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

func TestSynthetic1DGenerators(t *testing.T) {
	for _, kind := range Synthetic1DKinds {
		x := Synthetic1D(kind, 256, 1000, 7)
		if len(x) != 256 {
			t.Fatalf("%s: length %d", kind, len(x))
		}
		var total float64
		for _, v := range x {
			if v < 0 || v != math.Trunc(v) {
				t.Fatalf("%s: non-integer or negative count %v", kind, v)
			}
			total += v
		}
		if total != 1000 {
			t.Fatalf("%s: total mass %v, want 1000", kind, total)
		}
	}
}

func TestSynthetic1DUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Synthetic1D("nope", 8, 10, 1)
}

func TestSynthetic1DDeterministic(t *testing.T) {
	a := Synthetic1D("zipf", 64, 500, 3)
	b := Synthetic1D("zipf", 64, 500, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestCensusShape(t *testing.T) {
	tbl := Census(1)
	if tbl.NumRows() != CensusRows {
		t.Fatalf("census rows = %d", tbl.NumRows())
	}
	if tbl.Schema().DomainSize() != 1400000 {
		t.Fatalf("census domain = %d, want 1400000", tbl.Schema().DomainSize())
	}
	// Income should be heavy-tailed: the top bucket region is sparse but
	// the low-income region dense.
	h := tbl.Select("income").Vectorize()
	var lowMass, highMass float64
	for i := 0; i < 500; i++ {
		lowMass += h[i]
	}
	for i := 4500; i < 5000; i++ {
		highMass += h[i]
	}
	if lowMass <= 10*highMass {
		t.Fatalf("income not heavy-tailed: low %v high %v", lowMass, highMass)
	}
}

func TestCensusAgeStatusCorrelation(t *testing.T) {
	tbl := Census(2)
	// Young (age=0) heads-of-household should be mostly never-married
	// (status 4) relative to older ones.
	young := tbl.Where(Predicate{Eq("age", 0)})
	old := tbl.Where(Predicate{Eq("age", 3)})
	youngNM := float64(young.Where(Predicate{Eq("status", 4)}).NumRows()) / float64(young.NumRows())
	oldNM := float64(old.Where(Predicate{Eq("status", 4)}).NumRows()) / float64(old.NumRows())
	if youngNM < 2*oldNM {
		t.Fatalf("age/status correlation missing: young %v old %v", youngNM, oldNM)
	}
}

func TestCreditDefaultShape(t *testing.T) {
	tbl := CreditDefault(1)
	if tbl.NumRows() != CreditRows {
		t.Fatalf("credit rows = %d", tbl.NumRows())
	}
	// Predictor domain (without the label) must be 17,248 as in §9.3.
	predictors := tbl.Schema()[1:]
	prod := 1
	for _, a := range predictors {
		prod *= a.Size
	}
	if prod != 17248 {
		t.Fatalf("predictor domain = %d, want 17248", prod)
	}
	// Label imbalance near 22%.
	defaults := tbl.Where(Predicate{Eq("default", 1)}).NumRows()
	frac := float64(defaults) / float64(tbl.NumRows())
	if frac < 0.18 || frac > 0.26 {
		t.Fatalf("default rate = %v", frac)
	}
}

func TestCreditDefaultSignal(t *testing.T) {
	tbl := CreditDefault(3)
	// Defaulters should have visibly higher mean pay status.
	def := tbl.Where(Predicate{Eq("default", 1)})
	ok := tbl.Where(Predicate{Eq("default", 0)})
	if meanInt(def.Column("paystatus")) < meanInt(ok.Column("paystatus"))+1 {
		t.Fatal("credit data carries no label signal")
	}
}

func TestGrid2D(t *testing.T) {
	x := Grid2D(32, 32, 5000, 9)
	if len(x) != 1024 {
		t.Fatalf("grid len = %d", len(x))
	}
	var total float64
	for _, v := range x {
		total += v
	}
	if total != 5000 {
		t.Fatalf("grid mass = %v", total)
	}
	// Clustered: max cell should far exceed the uniform level.
	var maxV float64
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 3*total/1024 {
		t.Fatalf("grid not clustered: max %v", maxV)
	}
}

func meanInt(xs []int) float64 {
	var s float64
	for _, v := range xs {
		s += float64(v)
	}
	return s / float64(len(xs))
}
