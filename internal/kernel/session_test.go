package kernel

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/noise"
)

// TestSessionBindAndStreams checks the session plumbing: Bind routes a
// handle through another session, session streams are independent of
// the root stream, and seeded kernels replay every session's noise
// bit-identically.
func TestSessionBindAndStreams(t *testing.T) {
	run := func() ([]float64, []float64) {
		k, h := InitVectorSeeded([]float64{1, 2, 3, 4}, 100, 42)
		s := k.NewSession()
		y1, _, err := s.Bind(h).VectorLaplace(mat.Identity(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		y2, _, err := h.VectorLaplace(mat.Identity(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		return y1, y2
	}
	a1, a2 := run()
	b1, b2 := run()
	for i := range a1 {
		if a1[i] != b1[i] || a2[i] != b2[i] {
			t.Fatal("seeded kernel sessions are not reproducible")
		}
		if a1[i] == a2[i] {
			t.Fatal("session stream equals root stream")
		}
	}
}

func TestSessionBindAcrossKernelsPanics(t *testing.T) {
	k1, _ := InitVectorSeeded([]float64{1}, 1, 1)
	_, h2 := InitVectorSeeded([]float64{1}, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Bind across kernels did not panic")
		}
	}()
	k1.NewSession().Bind(h2)
}

// TestConcurrentSessionsBudgetLinearizable drives one kernel from many
// sessions at once. Under -race this doubles as the data-race check;
// in any schedule the per-session consumption totals must partition the
// root budget exactly, and the root total must never exceed epsTotal.
func TestConcurrentSessionsBudgetLinearizable(t *testing.T) {
	const (
		workers  = 8
		perEps   = 0.01
		epsTotal = 1.0
	)
	x := make([]float64, 32)
	k, root := InitVectorSeeded(x, epsTotal, 7)
	sessions := make([]*Session, workers)
	for i := range sessions {
		sessions[i] = k.NewSession()
	}
	var wg sync.WaitGroup
	grants := make([]int, workers) // successful queries per session
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := sessions[w].Bind(root)
			for {
				_, _, err := h.VectorLaplace(mat.Identity(32), perEps)
				if errors.Is(err, ErrBudgetExceeded) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				grants[w]++
			}
		}(w)
	}
	wg.Wait()

	var bySession, granted float64
	for w, s := range sessions {
		bySession += s.Consumed()
		granted += float64(grants[w]) * perEps
	}
	if math.Abs(bySession-k.Consumed()) > 1e-9 {
		t.Fatalf("session totals %v != root consumed %v", bySession, k.Consumed())
	}
	if math.Abs(granted-k.Consumed()) > 1e-9 {
		t.Fatalf("granted %v != consumed %v", granted, k.Consumed())
	}
	if k.Consumed() > epsTotal+budgetSlack {
		t.Fatalf("overdraft: consumed %v > %v", k.Consumed(), epsTotal)
	}
	// The budget must actually be exhausted: nothing below one grant left.
	if rem := k.EpsTotal() - k.Consumed(); rem >= perEps {
		t.Fatalf("workers stopped with %v remaining", rem)
	}
}

// TestHistoryNodesDefensiveCopies checks the audit accessors under
// concurrent writers: snapshots are internally consistent and mutating
// a returned slice never leaks back into kernel state.
func TestHistoryNodesDefensiveCopies(t *testing.T) {
	k, root := InitVectorSeeded(make([]float64, 16), 1e6, 11)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: grow the graph and the history
		defer wg.Done()
		h := root
		for i := 0; i < 200; i++ {
			if i%4 == 0 {
				h = root.Transform(mat.Identity(16))
			}
			if _, _, err := h.VectorLaplace(mat.Total(16), 0.5); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
	}()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		hist := k.History()
		for _, q := range hist {
			if q.Kind == "" || q.Epsilon != 0.5 {
				t.Fatalf("torn history record %+v", q)
			}
		}
		nodes := k.Nodes()
		for i, n := range nodes {
			if n.ID != i {
				t.Fatalf("torn node snapshot at %d: %+v", i, n)
			}
		}
		// Mutations of the copies must not reach the kernel.
		if len(hist) > 0 {
			hist[0].Epsilon = -1
		}
		if len(nodes) > 0 {
			nodes[0].Budget = -1
		}
	}
	wg.Wait()
	for _, q := range k.History() {
		if q.Epsilon != 0.5 {
			t.Fatal("History copy mutation leaked into the kernel")
		}
	}
	for _, n := range k.Nodes() {
		if n.Budget < 0 {
			t.Fatal("Nodes copy mutation leaked into the kernel")
		}
	}
}

// TestSessionConsumedUnderPartition checks that per-session root deltas
// partition the root budget even through a partition variable's
// max-of-children accounting.
func TestSessionConsumedUnderPartition(t *testing.T) {
	k, root := InitVectorSeeded([]float64{1, 2, 3, 4}, 10, 13)
	subs := root.SplitByPartition([]int{0, 0, 1, 1}, 2)
	s1, s2 := k.NewSession(), k.NewSession()
	if _, _, err := s1.Bind(subs[0]).VectorLaplace(mat.Identity(2), 0.4); err != nil {
		t.Fatal(err)
	}
	// A cheaper sibling query under the same partition costs the root
	// nothing (parallel composition), so s2's account stays zero.
	if _, _, err := s2.Bind(subs[1]).VectorLaplace(mat.Identity(2), 0.3); err != nil {
		t.Fatal(err)
	}
	if got := s1.Consumed(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("s1 consumed %v, want 0.4", got)
	}
	if got := s2.Consumed(); got != 0 {
		t.Fatalf("s2 consumed %v, want 0 (parallel composition)", got)
	}
	if total := s1.Consumed() + s2.Consumed() + k.rootSession().Consumed(); math.Abs(total-k.Consumed()) > 1e-12 {
		t.Fatalf("session totals %v != root %v", total, k.Consumed())
	}
}

// TestLegacyInitKeepsCallerStream pins the backwards-compatibility
// contract: InitVector must not consume draws from the caller's rng, so
// pre-session code replays bit-identically.
func TestLegacyInitKeepsCallerStream(t *testing.T) {
	direct := noise.NewRand(99)
	want := []float64{noise.Laplace(direct, 1), noise.Laplace(direct, 1)}

	_, h := InitVector([]float64{0, 0}, 100, noise.NewRand(99))
	got, _, err := h.VectorLaplace(mat.Identity(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d: got %v, want %v (Init consumed caller rng draws)", i, got[i], want[i])
		}
	}
}
