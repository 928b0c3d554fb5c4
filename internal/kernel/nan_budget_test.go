package kernel

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/noise"
)

// These tests pin the NaN/Inf epsilon guard. The old `eps <= 0` check
// let NaN through (every NaN comparison is false), and Algorithm 2's
// overdraft comparison `budget+σ > εtotal+slack` is likewise false for
// NaN — so a NaN charge was *granted*, the root budget became NaN, and
// every later overdraft check returned false: an unlimited-spending
// budget bypass. The guard must reject NaN and ±Inf before any charge
// is attempted, leaving the tracker finite and functional.

// badEpsilons are the values that must never reach the budget tracker.
var badEpsilons = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}

func TestNaNEpsilonChargeRejectedOnVector(t *testing.T) {
	k, root := vecKernel([]float64{1, 2, 3, 4}, 1)
	for _, eps := range badEpsilons {
		if _, _, err := root.VectorLaplace(mat.Identity(4), eps); err == nil {
			t.Fatalf("VectorLaplace accepted eps=%v", eps)
		}
		if _, err := root.WorstApprox(mat.Identity(4), []float64{0, 0, 0, 0}, eps, 1); err == nil {
			t.Fatalf("WorstApprox accepted eps=%v", eps)
		}
		if _, err := root.NoisyMax(func(x []float64) []float64 { return x }, eps, 1); err == nil {
			t.Fatalf("NoisyMax accepted eps=%v", eps)
		}
		// Rejection happens before the charge: nothing may be consumed and
		// the tracker must stay finite.
		if c := k.Consumed(); c != 0 {
			t.Fatalf("eps=%v leaked consumption %v", eps, c)
		}
		if len(k.History()) != 0 {
			t.Fatalf("eps=%v left a history record", eps)
		}
	}
	// The tracker still works: a valid charge is granted, and overdraft
	// detection is intact afterwards (the poisoned-NaN failure mode made
	// every later comparison false, i.e. unlimited budget).
	if _, _, err := root.VectorLaplace(mat.Identity(4), 0.75); err != nil {
		t.Fatalf("valid charge rejected after bad-eps attempts: %v", err)
	}
	if c := k.Consumed(); c != 0.75 || math.IsNaN(c) {
		t.Fatalf("consumed = %v, want 0.75", c)
	}
	if _, _, err := root.VectorLaplace(mat.Identity(4), 0.5); err != ErrBudgetExceeded {
		t.Fatalf("overdraft after bad-eps attempts: err=%v, want ErrBudgetExceeded", err)
	}
	if c := k.Consumed(); c != 0.75 {
		t.Fatalf("failed overdraft changed consumption to %v", c)
	}
}

func TestNaNEpsilonChargeRejectedOnTable(t *testing.T) {
	tab := dataset.New(dataset.Schema{{Name: "a", Size: 2}})
	tab.Append(0)
	tab.Append(1)
	k, root := InitTable(tab, 1, noise.NewRand(3))
	for _, eps := range badEpsilons {
		if _, err := tableCount(root, eps); err == nil {
			t.Fatalf("table count accepted eps=%v", eps)
		}
	}
	if c := k.Consumed(); c != 0 {
		t.Fatalf("bad eps leaked consumption %v", c)
	}
	if _, err := tableCount(root, 1); err != nil {
		t.Fatalf("valid table count rejected: %v", err)
	}
	if c := k.Consumed(); c != 1 {
		t.Fatalf("consumed = %v, want 1", c)
	}
}

// TestNaNSensitivityRejected pins the selection operators' second
// parameter: NaN rowSens/sens must not slip past the positivity check
// either (`x <= 0` is false for NaN too).
func TestNaNSensitivityRejected(t *testing.T) {
	k, root := vecKernel([]float64{1, 2, 3, 4}, 1)
	for _, sens := range []float64{math.NaN(), 0, -2} {
		if _, err := root.WorstApprox(mat.Identity(4), []float64{0, 0, 0, 0}, 0.1, sens); err == nil {
			t.Fatalf("WorstApprox accepted rowSens=%v", sens)
		}
		if _, err := root.NoisyMax(func(x []float64) []float64 { return x }, 0.1, sens); err == nil {
			t.Fatalf("NoisyMax accepted sens=%v", sens)
		}
	}
	if c := k.Consumed(); c != 0 {
		t.Fatalf("bad sens leaked consumption %v", c)
	}
}

// TestDenormalEpsilonRejectedBeforeCharge pins the noise-scale guard: a
// denormal eps is positive and finite, so it passes validEps, but the
// scale sensitivity/eps it implies is +Inf. The operators must refuse it
// before the charge — with the charge granted, the caller would hold a
// spent budget and non-finite answers it cannot log.
func TestDenormalEpsilonRejectedBeforeCharge(t *testing.T) {
	const denormal = 5e-324
	k, root := vecKernel([]float64{1, 2, 3, 4}, 1)
	if _, _, err := root.VectorLaplace(mat.Identity(4), denormal); err == nil {
		t.Fatal("VectorLaplace accepted a denormal eps")
	}
	if c, n := k.Consumed(), k.HistoryLen(); c != 0 || n != 0 {
		t.Fatalf("denormal eps charged: consumed %v, %d history records", c, n)
	}
	y, scale, err := root.VectorLaplace(mat.Identity(4), 0.5)
	if err != nil || math.IsInf(scale, 0) || k.Consumed() != 0.5 {
		t.Fatalf("valid charge after the refusals: scale %v, consumed %v, err %v", scale, k.Consumed(), err)
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite answer %v", v)
		}
	}

	tab := dataset.New(dataset.Schema{{Name: "a", Size: 2}})
	tab.Append(0)
	tk, troot := InitTable(tab, 1, noise.NewRand(3))
	if _, err := tableCount(troot, denormal); err == nil {
		t.Fatal("table count accepted a denormal eps")
	}
	if c := tk.Consumed(); c != 0 {
		t.Fatalf("denormal table count charged %v", c)
	}
}
