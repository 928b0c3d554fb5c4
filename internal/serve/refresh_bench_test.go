package serve

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core/inference"
)

// refreshBenchWrites is mixed.rw's write stream (bench/spec.go): three
// strategies in rotation, every commit at ε 0.01.
var refreshBenchWrites = []string{"h2", "identity", "hb"}

// refreshBenchDataset is an in-memory lsmr dataset at domain 1024 whose
// log holds the given number of blocks of that stream.
func refreshBenchDataset(tb testing.TB, blocks int) *Dataset {
	tb.Helper()
	s := New(Config{Solver: SolverLSMR})
	tb.Cleanup(s.Close)
	d, err := s.CreateDataset("bench", "piecewise", 1024, 1e6, 7, 1e12)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		if _, err := d.Measure(refreshBenchWrites[i%3], 0.01); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.Refresh(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkRefreshLogLength times a from-scratch refresh (no warm
// start, so every iteration does the same full solve) of a log of 8 and
// of 64 blocks over the same three strategies, and fails if the longer
// log costs more than 1.5× the shorter one in time or in bytes
// allocated: a refresh is priced by the distinct strategies in the log,
// not by its length. CI smoke-runs it at -benchtime 20x.
func BenchmarkRefreshLogLength(b *testing.B) {
	lengths := []int{8, 64}
	var nsPerOp, bytesPerOp [2]float64
	for i, blocks := range lengths {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			d := refreshBenchDataset(b, blocks)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				d.mu.Lock()
				d.stale, d.panel = true, nil
				d.mu.Unlock()
				if err := d.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			nsPerOp[i] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			bytesPerOp[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
			b.ReportMetric(float64(d.Summary().SolveIterations), "iterations")
		})
	}
	if nsPerOp[0] == 0 || nsPerOp[1] == 0 {
		return // a -bench filter ran one length only
	}
	if nsPerOp[1] > 1.5*nsPerOp[0] {
		b.Fatalf("refresh at %d blocks takes %.2f ms, more than 1.5× the %.2f ms at %d blocks",
			lengths[1], nsPerOp[1]/1e6, nsPerOp[0]/1e6, lengths[0])
	}
	if bytesPerOp[1] > 1.5*bytesPerOp[0] {
		b.Fatalf("refresh at %d blocks allocates %.0f B, more than 1.5× the %.0f B at %d blocks",
			lengths[1], bytesPerOp[1], bytesPerOp[0], lengths[0])
	}
}

// TestRefreshCostFollowsDeltaNotLog pins what the benchmark times, in
// counts that repeat exactly: along mixed.rw's write stream the warm
// refresh after the 48th block needs no more than 1.5× the solver
// iterations of the one after the 3rd, solves a system of the same three
// groups, and draws bootstrap noise for the rows of the new block only.
func TestRefreshCostFollowsDeltaNotLog(t *testing.T) {
	d := refreshBenchDataset(t, 2)
	drawn := func() (n int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, b := range d.blocks {
			n += len(b.boot)
		}
		return n
	}
	var itersAt3 int
	for blocks := 3; blocks <= 48; blocks++ {
		before := drawn()
		rows, err := d.Measure(refreshBenchWrites[(blocks-1)%3], 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got, want := drawn()-before, rows*d.cfg.Replicates; got != want {
			t.Fatalf("refresh at %d blocks drew %d Laplace variates, want %d (the new block's rows × replicates)", blocks, got, want)
		}
		if blocks == 3 {
			itersAt3 = d.Summary().SolveIterations
		}
	}
	sum := d.Summary()
	if 2*sum.SolveIterations > 3*itersAt3 {
		t.Fatalf("refresh at 48 blocks took %d iterations, more than 1.5× the %d at 3 blocks", sum.SolveIterations, itersAt3)
	}
	d.mu.Lock()
	groups := d.fold.(*inference.Consolidated).Groups()
	d.mu.Unlock()
	if groups != 3 {
		t.Fatalf("%d groups for three distinct strategies", groups)
	}
}
