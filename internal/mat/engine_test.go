package mat

import (
	"sync"
	"testing"

	"repro/internal/vec"
)

// largeMats builds one matrix per parallel kernel family, each big
// enough (≥ parMinWork estimated flops) to take the engine path.
func largeMats() map[string]Matrix {
	n := 1 << 9 // dense/sparse: 512×512; combinators scale up from this
	dense := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dense.Set(i, j, float64((i*31+j*17)%7)-3)
		}
	}
	var tri []Triplet
	for i := 0; i < 4*n; i++ {
		for k := 0; k < 8; k++ {
			tri = append(tri, Triplet{Row: i, Col: (i*13 + k*k*5) % n, Val: float64(k%3 - 1)})
		}
	}
	// Enough stacked blocks that the VStack transpose clears its
	// merge-cost guard and actually takes the accumulator path.
	vn := 1 << 15
	vblocks := []Matrix{Identity(vn), RangeQueries(vn, HierarchicalRanges(vn, 2))}
	for i := 0; i < 8; i++ {
		vblocks = append(vblocks, Prefix(vn))
	}
	return map[string]Matrix{
		"dense":  dense,
		"sparse": NewSparse(4*n, n, tri),
		"vstack": VStack(vblocks...),
		"kron":   Kron(Prefix(256), Wavelet(256)),
	}
}

// TestParallelMatVecMatchesSerial pins the engine output to the serial
// kernels for every parallel kernel family, in both directions.
func TestParallelMatVecMatchesSerial(t *testing.T) {
	defer SetParallelism(0)
	for name, m := range largeMats() {
		r, c := m.Dims()
		x := make([]float64, c)
		for i := range x {
			x[i] = float64(i%11) - 5
		}
		xt := make([]float64, r)
		for i := range xt {
			xt[i] = float64(i%7) - 3
		}
		SetParallelism(1)
		wantMV := Mul(m, x)
		wantTMV := TMul(m, xt)
		for _, p := range []int{2, 3, 8} {
			SetParallelism(p)
			gotMV := Mul(m, x)
			gotTMV := TMul(m, xt)
			if !vec.AllClose(gotMV, wantMV, 1e-12, 1e-12) {
				t.Errorf("%s: parallel(%d) MatVec differs from serial", name, p)
			}
			if !vec.AllClose(gotTMV, wantTMV, 1e-12, 1e-12) {
				t.Errorf("%s: parallel(%d) TMatVec differs from serial", name, p)
			}
		}
	}
}

// TestMatVecZeroAllocs asserts the satellite requirement: steady-state
// MatVec/TMatVec on Dense, Sparse, VStack and Kron perform zero heap
// allocations, on the serial path and through the parallel engine.
func TestMatVecZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	defer SetParallelism(0)
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		for name, m := range largeMats() {
			r, c := m.Dims()
			x := make([]float64, c)
			dst := make([]float64, r)
			xt := make([]float64, r)
			dstT := make([]float64, c)
			// Warm the scratch and task pools.
			for i := 0; i < 3; i++ {
				m.MatVec(dst, x)
				m.TMatVec(dstT, xt)
			}
			if a := testing.AllocsPerRun(20, func() { m.MatVec(dst, x) }); a != 0 {
				t.Errorf("%s p=%d: MatVec allocates %.1f/op, want 0", name, par, a)
			}
			if a := testing.AllocsPerRun(20, func() { m.TMatVec(dstT, xt) }); a != 0 {
				t.Errorf("%s p=%d: TMatVec allocates %.1f/op, want 0", name, par, a)
			}
		}
	}
}

// TestConcurrentEngineMatVec drives many concurrent large mat-vecs
// through the engine (run with -race in CI). Concurrent callers that
// find the engine busy must degrade to the serial path and still produce
// identical results.
func TestConcurrentEngineMatVec(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	for name, m := range largeMats() {
		r, c := m.Dims()
		x := make([]float64, c)
		for i := range x {
			x[i] = float64(i%13) - 6
		}
		want := Mul(m, x)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float64, r)
				for k := 0; k < 10; k++ {
					m.MatVec(dst, x)
					if !vec.AllClose(dst, want, 1e-12, 1e-12) {
						t.Errorf("%s: concurrent engine MatVec diverged", name)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// panicMat panics on every mat-vec; it stands in for a buggy external
// Matrix implementation running under the engine.
type panicMat struct{ n int }

func (p panicMat) Dims() (int, int)         { return p.n, p.n }
func (p panicMat) MatVec(dst, x []float64)  { panic("panicMat: MatVec") }
func (p panicMat) TMatVec(dst, x []float64) { panic("panicMat: TMatVec") }

// TestEnginePanicPropagates checks that a kernel panicking on an engine
// worker reaches the calling goroutine as a panic (not a process crash)
// and leaves the engine usable for the next run.
func TestEnginePanicPropagates(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	n := 1 << 15
	bad := VStack(panicMat{n: n}, Identity(n), Prefix(n))
	x := make([]float64, n)
	dst := make([]float64, 3*n)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic from engine run")
			}
		}()
		bad.MatVec(dst, x)
	}()
	// The engine must be fully drained and reusable.
	good := VStack(Identity(n), Prefix(n), Suffix(n))
	for i := range x {
		x[i] = float64(i % 9)
	}
	SetParallelism(1)
	want := Mul(good, x)
	SetParallelism(4)
	if !vec.AllClose(Mul(good, x), want, 1e-12, 1e-12) {
		t.Error("engine produced wrong results after trapped panic")
	}
}

// TestSetParallelism checks the setter contract: positive values stick,
// non-positive values restore the GOMAXPROCS default.
func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("default Parallelism() = %d, want >= 1", got)
	}
	SetParallelism(-5)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(-5), want default", got)
	}
}

// TestWorkspaceReuse checks the Get/Put free-list contract, including
// the nil-workspace convenience behavior.
func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	b1 := ws.Get(64)
	ws.Put(b1)
	b2 := ws.Get(32)
	if &b1[0] != &b2[0] {
		t.Error("workspace did not reuse the returned buffer")
	}
	ws.Put(b2)
	if a := testing.AllocsPerRun(50, func() { ws.Put(ws.Get(64)) }); a != 0 {
		t.Errorf("steady-state workspace Get/Put allocates %.1f/op", a)
	}
	var nilWS *Workspace
	b := nilWS.Get(16)
	if len(b) != 16 {
		t.Fatalf("nil workspace Get returned len %d", len(b))
	}
	nilWS.Put(b) // must not panic
	if z := nilWS.GetZero(8); len(z) != 8 {
		t.Fatalf("nil workspace GetZero returned len %d", len(z))
	}
}

// TestMaterializeWideMatrix exercises the row-extraction path (rows <
// cols) against the column path.
func TestMaterializeWideMatrix(t *testing.T) {
	m := Ones(2, 9)
	d := Materialize(m)
	r, c := d.Dims()
	if r != 2 || c != 9 {
		t.Fatalf("dims %dx%d", r, c)
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if d.At(i, j) != 1 {
				t.Fatalf("at(%d,%d) = %v", i, j, d.At(i, j))
			}
		}
	}
	// A non-symmetric implicit matrix where row and column paths must
	// agree element-wise.
	sp := NewSparse(3, 8, []Triplet{{Row: 0, Col: 7, Val: 2}, {Row: 2, Col: 1, Val: -3}})
	wide := Materialize(sp)
	tall := Materialize(T(sp))
	for i := 0; i < 3; i++ {
		for j := 0; j < 8; j++ {
			if wide.At(i, j) != tall.At(j, i) {
				t.Fatalf("materialize mismatch at (%d,%d)", i, j)
			}
		}
	}
}
