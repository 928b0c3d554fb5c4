package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/core/plans"
	"repro/internal/mat"
	"repro/internal/wal"
)

// machineState is everything the log determines about a dataset: the
// encoded measurement log, its generation, the budget it spent, the
// audit head, and the normal-equations answers with their standard
// errors.
type machineState struct {
	blocks    []byte
	gen       uint64
	consumed  uint64 // float bits
	auditSize uint64
	auditRoot string
	answers   []float64
	stderr    []float64
}

var machineWorkload = []mat.Range1D{{Lo: 0, Hi: 31}, {Lo: 4, Hi: 19}, {Lo: 9, Hi: 9}, {Lo: 20, Hi: 31}}

func captureMachine(t *testing.T, d *Dataset) machineState {
	t.Helper()
	d.mu.Lock()
	enc, err := appendBlocksJSON(nil, d.blocks)
	gen := d.gen
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	sum := d.Summary()
	q, err := d.Query(machineWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return machineState{enc, gen, math.Float64bits(sum.Consumed), sum.AuditSize, sum.AuditRoot, q.Answers, q.Stderr}
}

func requireSameMachine(t *testing.T, what string, got, want machineState) {
	t.Helper()
	if !bytes.Equal(got.blocks, want.blocks) {
		t.Fatalf("%s: encoded log differs (%d vs %d bytes)", what, len(got.blocks), len(want.blocks))
	}
	if got.gen != want.gen || got.consumed != want.consumed || got.auditSize != want.auditSize || got.auditRoot != want.auditRoot {
		t.Fatalf("%s: generation %d consumed %v audit %d %s; want generation %d consumed %v audit %d %s", what,
			got.gen, math.Float64frombits(got.consumed), got.auditSize, got.auditRoot,
			want.gen, math.Float64frombits(want.consumed), want.auditSize, want.auditRoot)
	}
	if !bitsEqual(got.answers, want.answers) || !bitsEqual(got.stderr, want.stderr) {
		t.Fatalf("%s: answers %v ± %v, want %v ± %v", what, got.answers, got.stderr, want.answers, want.stderr)
	}
}

// TestLogStateMachineThreeWay runs one seeded random schedule of
// measures, plan commits and failed-plan spends, with compaction every
// four records, three ways: live on a primary, as a restart replay of
// the primary's state directory, and through ApplyWALStream on two
// followers that are then restarted from their own local logs. One
// follower ships after every step, so it applies every record; the
// other ships rarely and resyncs from the bootstrap stream whenever the
// primary trimmed past it. The schedule ends with a spend the last
// compaction does not cover, so replay applies a budget record too.
// All of them must hold the same state, bit for bit.
func TestLogStateMachineThreeWay(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { threeWay(t, seed) })
	}
}

// follower is one replica under test and its position in the primary's
// stream.
type follower struct {
	dir   string
	s     *Server
	d     *Dataset
	off   int64
	every int // ship after every this many steps
}

func threeWay(t *testing.T, seed uint64) {
	const name, n, epsTotal = "sm", 32, 10.0
	cfg := func(dir string) Config {
		return Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 4}
	}
	ps := New(cfg(t.TempDir()))
	pd, err := ps.CreateDatasetWithOptions(name, "piecewise", n, 2000, seed, epsTotal, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	pdir := ps.cfg.StateDir
	openFollower := func(f *follower) {
		f.s = New(cfg(f.dir))
		if f.d, err = f.s.CreateFollower(name, n, epsTotal, seed, SolverNormal, 0, "http://primary"); err != nil {
			t.Fatal(err)
		}
	}
	followers := []*follower{{dir: t.TempDir(), every: 1}, {dir: t.TempDir(), every: 5}}
	for _, f := range followers {
		openFollower(f)
	}
	ship := func(f *follower) {
		data, next, _, _, err := pd.WALTail(f.off)
		if errors.Is(err, ErrWALRange) {
			// Trimmed past this follower's offset: resync from the
			// regenerated bootstrap at zero, as the cluster tier does.
			data, next, _, _, err = pd.WALTail(0)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.d.ApplyWALStream(data); err != nil {
			t.Fatal(err)
		}
		f.off = next
	}

	rng := rand.New(rand.NewPCG(seed, 77))
	strategies := Strategies()
	spend := func() {
		// AHP charges half its ε on partition selection; asked for 1.5×
		// the remainder, its measurement stage overdrafts, so the plan
		// fails having spent 0.75× the remainder.
		if _, err := pd.MeasurePlan("AHP", 1.5*(epsTotal-pd.Summary().Consumed), plans.Params{}); err == nil {
			t.Fatal("overdrafting AHP did not fail")
		}
	}
	for step := 1; step <= 20; step++ {
		remaining := epsTotal - pd.Summary().Consumed
		switch r := rng.IntN(10); {
		case r < 5:
			if _, err := pd.Measure(strategies[rng.IntN(len(strategies))], remaining*(0.02+0.05*rng.Float64())); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			plan := []string{"Identity", "Privelet", "Hierarchical (H2)"}[rng.IntN(3)]
			if _, err := pd.MeasurePlan(plan, remaining*(0.02+0.05*rng.Float64()), plans.Params{}); err != nil {
				t.Fatal(err)
			}
		default:
			spend()
		}
		for _, f := range followers {
			if step%f.every == 0 {
				ship(f)
			}
		}
		if rng.IntN(4) == 0 && pd.Summary().Generation > 0 {
			if _, err := pd.Query(machineWorkload); err != nil {
				t.Fatal(err)
			}
		}
	}
	pd.mu.Lock()
	due := pd.walRecs == ps.cfg.CheckpointEvery-1
	pd.mu.Unlock()
	if due {
		// The next state record would compact; let a measure take that.
		if _, err := pd.Measure("total", 0.01); err != nil {
			t.Fatal(err)
		}
	}
	spend()
	live := captureMachine(t, pd)
	for i, f := range followers {
		ship(f)
		requireSameMachine(t, fmt.Sprintf("follower %d", i), captureMachine(t, f.d), live)
	}
	ps.Close()
	for _, f := range followers {
		f.s.Close()
	}

	rs := New(cfg(pdir))
	defer rs.Close()
	rd, err := rs.CreateDatasetWithOptions(name, "piecewise", n, 2000, seed, epsTotal, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMachine(t, "primary restart", captureMachine(t, rd), live)
	for i, f := range followers {
		openFollower(f)
		defer f.s.Close()
		requireSameMachine(t, fmt.Sprintf("follower %d restart", i), captureMachine(t, f.d), live)
	}
}

// FuzzApplyWALStream feeds a follower arbitrary shipped bytes, then one
// frame sealed around an arbitrary payload (so the decoder is reached
// past the checksum). Whatever arrives, apply must not panic, must not
// push consumed past eps_total (beyond the kernel's 1e-9 accounting
// slack), and must leave only finite blocks in the log.
func FuzzApplyWALStream(f *testing.F) {
	ps := New(Config{})
	defer ps.Close()
	pd, err := ps.CreateDatasetWithOptions("fz", "piecewise", 8, 100, 3, 4, SolverNormal, 0)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := pd.Measure("identity", 1); err != nil {
		f.Fatal(err)
	}
	if _, err := pd.MeasurePlan("AHP", 4, plans.Params{}); err == nil {
		f.Fatal("overdrafting AHP did not fail")
	}
	if _, err := pd.Measure("total", 0.5); err != nil {
		f.Fatal(err)
	}
	stream, _, _, _, err := pd.WALTail(0)
	if err != nil {
		f.Fatal(err)
	}
	recs, _ := wal.ScanStream(stream)
	f.Add(stream, uint8(0), []byte(nil))
	for i, rec := range recs {
		f.Add(stream[:len(stream)/(i+2)], uint8(rec.Type), rec.Payload)
	}
	f.Add([]byte(nil), uint8(wal.TypeMeasurementBlock), []byte(`{"gen":1,"consumed":9,"blocks":[{"rows":1,"cols":8,"dense":[1,1,1,1,1,1,1,1],"y":[3],"scale":1}]}`))
	f.Add([]byte(nil), uint8(wal.TypeBudgetRestore), []byte(`{"consumed":4.5}`))
	f.Add([]byte(nil), uint8(wal.TypeMeasurementBlock), []byte(`{"gen":1,"consumed":1,"blocks":[{"rows":1,"cols":8,"dense":[1,1,1,1,1,1,1,1],"y":[1e999],"scale":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte, typ uint8, payload []byte) {
		s := New(Config{})
		defer s.Close()
		d, err := s.CreateFollower("fz", 8, 4, 3, SolverNormal, 0, "http://p")
		if err != nil {
			t.Fatal(err)
		}
		d.ApplyWALStream(data)
		d.ApplyWALStream(wal.AppendFrame(nil, wal.Type(typ), payload))
		if c := d.Summary().Consumed; !(c <= 4+1e-9) {
			t.Fatalf("consumed %v beyond eps_total 4", c)
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		for i, b := range d.blocks {
			if _, err := json.Marshal(encodeBlock(b)); err != nil {
				t.Fatalf("block %d is not finite: %v", i, err)
			}
		}
	})
}
