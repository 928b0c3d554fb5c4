package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, -1}, y)
	if y[0] != 7 || y[1] != -1 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) != 0")
	}
}

func TestNorm2Overflow(t *testing.T) {
	x := []float64{1e200, 1e200}
	got := Norm2(x)
	want := 1e200 * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 overflow-guarded = %v, want %v", got, want)
	}
}

func TestSumMax(t *testing.T) {
	x := []float64{2, -1, 5, 0}
	if Sum(x) != 6 || Max(x) != 5 {
		t.Fatalf("sum/max = %v %v", Sum(x), Max(x))
	}
}

func TestClampNonNeg(t *testing.T) {
	x := []float64{-1, 0, 2}
	ClampNonNeg(x)
	if x[0] != 0 || x[2] != 2 {
		t.Fatalf("clamp = %v", x)
	}
}

func TestCloneIndependent(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 9
	if x[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestBasisOnes(t *testing.T) {
	e := Basis(4, 2)
	if Sum(e) != 1 || e[2] != 1 {
		t.Fatalf("basis = %v", e)
	}
	if Sum(Ones(5)) != 5 {
		t.Fatal("Ones wrong")
	}
}

func TestAllClose(t *testing.T) {
	if !AllClose([]float64{1, 2}, []float64{1 + 1e-12, 2}, 1e-9, 1e-9) {
		t.Fatal("AllClose too strict")
	}
	if AllClose([]float64{1}, []float64{2}, 1e-9, 1e-9) {
		t.Fatal("AllClose too lax")
	}
	if AllClose([]float64{1}, []float64{1, 1}, 1, 1) {
		t.Fatal("AllClose ignores length")
	}
}

// Property: triangle inequality for Norm2 over random vectors.
func TestNorm2TriangleQuick(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y, s := a[:], b[:], make([]float64, 8)
		for i := range s {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				return true
			}
			x[i] = math.Mod(x[i], 1e6)
			y[i] = math.Mod(y[i], 1e6)
			s[i] = x[i] + y[i]
		}
		return Norm2(s) <= Norm2(x)+Norm2(y)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |⟨x,y⟩| ≤ ‖x‖‖y‖.
func TestCauchySchwarzQuick(t *testing.T) {
	f := func(a, b [6]float64) bool {
		x, y := a[:], b[:]
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				return true
			}
			x[i] = math.Mod(x[i], 1e5)
			y[i] = math.Mod(y[i], 1e5)
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
