package plans

import (
	"strings"
	"testing"
)

func TestRegistryCoversFig2(t *testing.T) {
	if len(Registry) != 20 {
		t.Fatalf("registry has %d plans, Fig. 2 lists 20", len(Registry))
	}
	seenID := map[int]bool{}
	for _, p := range Registry {
		if p.ID < 1 || p.ID > 20 || seenID[p.ID] {
			t.Fatalf("bad or duplicate plan id %d", p.ID)
		}
		seenID[p.ID] = true
		if p.Name == "" || p.Signature == "" {
			t.Fatalf("plan %d incomplete: %+v", p.ID, p)
		}
		if len(p.PrivacyCritical) == 0 {
			t.Fatalf("plan %d lists no privacy-critical operators", p.ID)
		}
	}
}

func TestRegistryNewPlansAreTheSeven(t *testing.T) {
	var newCount int
	for _, p := range Registry {
		if p.New {
			newCount++
			if p.ID < 14 {
				t.Errorf("plan %d marked new but is a literature plan", p.ID)
			}
		}
	}
	if newCount != 7 {
		t.Fatalf("new plans = %d, want 7 (#14-#20)", newCount)
	}
}

func TestRegistryLaplaceOnlyMajority(t *testing.T) {
	// The paper's verification-effort argument: most plans touch private
	// data only through Vector Laplace.
	var laplaceOnly int
	for _, p := range Registry {
		if len(p.PrivacyCritical) == 1 && p.PrivacyCritical[0] == "VectorLaplace" {
			laplaceOnly++
		}
	}
	if laplaceOnly < 12 {
		t.Fatalf("only %d plans are Laplace-only; the paper vets 10+ via one operator", laplaceOnly)
	}
}

func TestPrivacyCriticalOperators(t *testing.T) {
	ops := PrivacyCriticalOperators()
	want := map[string]bool{"VectorLaplace": true, "WorstApprox": true, "NoisyMax": true}
	if len(ops) != len(want) {
		t.Fatalf("critical operators = %v", ops)
	}
	for _, op := range ops {
		if !want[op] {
			t.Fatalf("unexpected critical operator %q", op)
		}
	}
}

func TestSignaturesShareIdioms(t *testing.T) {
	// The select-measure-infer idiom (S* LM LS) appears across plans
	// (paper §6.2's second translation strategy).
	var idiom int
	for _, p := range Registry {
		if strings.Contains(p.Signature, "LM LS") {
			idiom++
		}
	}
	if idiom < 8 {
		t.Fatalf("LM LS idiom appears in only %d signatures", idiom)
	}
}
