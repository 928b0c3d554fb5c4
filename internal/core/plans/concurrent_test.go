package plans

import (
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/workload"
)

// TestConcurrentSessionsRunRegistryPlans drives one kernel from many
// concurrent sessions, each executing a different registry plan through
// the operator-graph executor. Under -race this is the end-to-end data
// race check for the session layer; in any schedule the Algorithm 2
// accounting must be linearizable: the root consumption equals the sum
// of the per-session grants exactly, and never exceeds epsTotal.
func TestConcurrentSessionsRunRegistryPlans(t *testing.T) {
	n := 64
	x := testData(n, 17)
	const grant = 0.5 // every plan below consumes exactly its grant
	w := workload.RandomRange(n, 20, rand.New(rand.NewPCG(2, 2)))
	planFns := []func(h *kernel.Handle) ([]float64, error){
		func(h *kernel.Handle) ([]float64, error) { return Identity(h, grant) },
		func(h *kernel.Handle) ([]float64, error) { return H2Graph(grant).Execute(h) },
		func(h *kernel.Handle) ([]float64, error) { return HB(h, grant) },
		func(h *kernel.Handle) ([]float64, error) { return PriveletGraph(grant).Execute(h) },
		func(h *kernel.Handle) ([]float64, error) {
			return MWEM(h, w, grant, MWEMConfig{Rounds: 4, Total: 20000})
		},
		func(h *kernel.Handle) ([]float64, error) { return AHP(h, grant, AHPConfig{}) },
		func(h *kernel.Handle) ([]float64, error) { return DAWA(h, grant, DAWAConfig{}) },
		func(h *kernel.Handle) ([]float64, error) { return CDFGraph(grant, CDFConfig{}).Execute(h) },
	}
	epsTotal := grant*float64(len(planFns)) + 1 // headroom: every plan must succeed

	k, root := kernel.InitVectorSeeded(x, epsTotal, 23)
	sessions := make([]*kernel.Session, len(planFns))
	for i := range sessions {
		sessions[i] = k.NewSession()
	}
	var wg sync.WaitGroup
	for i, plan := range planFns {
		wg.Add(1)
		go func(i int, plan func(h *kernel.Handle) ([]float64, error)) {
			defer wg.Done()
			got, err := plan(sessions[i].Bind(root))
			if err != nil {
				t.Errorf("plan %d: %v", i, err)
				return
			}
			if len(got) != n {
				t.Errorf("plan %d: output length %d", i, len(got))
			}
		}(i, plan)
	}
	wg.Wait()

	var bySession float64
	for i, s := range sessions {
		c := s.Consumed()
		if math.Abs(c-grant) > 1e-9 {
			t.Errorf("session %d consumed %v, want exactly %v", i, c, grant)
		}
		bySession += c
	}
	if math.Abs(bySession-k.Consumed()) > 1e-9 {
		t.Fatalf("session totals %v != kernel consumed %v", bySession, k.Consumed())
	}
	if k.Consumed() > epsTotal+1e-9 {
		t.Fatalf("consumed %v exceeds epsTotal %v", k.Consumed(), epsTotal)
	}
}

// TestConcurrentSessionsNeverOverdraw floods a tight budget from many
// sessions; however the grants interleave, the kernel must stop the
// total at epsTotal and the denied plans must fail cleanly with
// ErrBudgetExceeded.
func TestConcurrentSessionsNeverOverdraw(t *testing.T) {
	n := 32
	x := testData(n, 19)
	const grant = 0.25
	const epsTotal = 1.0 // room for 4 of the 12 attempts
	k, root := kernel.InitVectorSeeded(x, epsTotal, 29)
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted, denied := 0, 0
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := Identity(k.NewSession().Bind(root), grant)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				granted++
			case errors.Is(err, kernel.ErrBudgetExceeded):
				denied++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if granted != 4 || denied != 8 {
		t.Fatalf("granted %d denied %d, want 4/8", granted, denied)
	}
	if math.Abs(k.Consumed()-float64(granted)*grant) > 1e-9 {
		t.Fatalf("consumed %v, want %v", k.Consumed(), float64(granted)*grant)
	}
}
