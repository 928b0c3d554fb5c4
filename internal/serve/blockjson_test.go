package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/mat"
)

// plainBlock is wireBlock without methods: encoding/json encodes it
// reflectively, which is the byte-level reference for appendJSON.
type plainBlock struct {
	Rows   int           `json:"rows"`
	Cols   int           `json:"cols"`
	Dense  []float64     `json:"dense,omitempty"`
	Sparse []wireTriplet `json:"sparse,omitempty"`
	Y      []float64     `json:"y"`
	Scale  float64       `json:"scale"`
}

// checkBlockJSON asserts appendJSON and encoding/json agree on b: the
// same bytes, or an error from both.
func checkBlockJSON(t *testing.T, b wireBlock) {
	t.Helper()
	want, werr := json.Marshal(plainBlock(b))
	got, gerr := b.appendJSON(nil)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("block %+v: appendJSON error %v, encoding/json error %v", b, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("block %+v:\nappendJSON     %s\nencoding/json  %s", b, got, want)
	}
	// The prefix handed in is kept, and json.Marshal reaches the same
	// encoder through MarshalJSON.
	if pre, err := b.appendJSON([]byte("xy")); err != nil || !bytes.Equal(pre, append([]byte("xy"), want...)) {
		t.Fatalf("block %+v: appendJSON after a prefix gave %s (%v)", b, pre, err)
	}
	if via, err := json.Marshal(b); err != nil || !bytes.Equal(via, want) {
		t.Fatalf("block %+v: json.Marshal gave %s (%v), want %s", b, via, err, want)
	}
}

var blockJSONFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 4095, 1 << 53, 1e20, 1e21, 1.5e21, -1e21, 1e-6, 1e-7, 9.999999e-7,
	5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, 0.000244140625,
	123456789.125, 1e-10, 1.234e-100, 1e100, 2.5e-9,
}

// TestBlockJSONMatchesEncodingJSON pins the block encoder byte for byte
// against encoding/json over the cases its float and omitempty rules
// branch on.
func TestBlockJSONMatchesEncodingJSON(t *testing.T) {
	for _, v := range blockJSONFloats {
		checkBlockJSON(t, wireBlock{Rows: 1, Cols: 2, Dense: []float64{v, 1}, Y: []float64{v}, Scale: v})
		checkBlockJSON(t, wireBlock{Rows: 3, Cols: 9, Sparse: []wireTriplet{{R: 2, C: 8, V: v}, {V: -v}}, Y: []float64{v, v, v}})
	}
	checkBlockJSON(t, wireBlock{})                                                  // y null, dense and sparse omitted
	checkBlockJSON(t, wireBlock{Y: []float64{}})                                    // y []
	checkBlockJSON(t, wireBlock{Dense: []float64{}, Sparse: []wireTriplet{}})       // empty is omitted too
	checkBlockJSON(t, wireBlock{Rows: -4, Cols: math.MaxInt64, Y: []float64{1, 2}}) // integers as written
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkBlockJSON(t, wireBlock{Rows: 1, Cols: 1, Dense: []float64{bad}, Y: []float64{0}})
		checkBlockJSON(t, wireBlock{Rows: 1, Cols: 1, Sparse: []wireTriplet{{V: bad}}, Y: []float64{0}})
		checkBlockJSON(t, wireBlock{Rows: 1, Cols: 1, Dense: []float64{1}, Y: []float64{bad}})
		checkBlockJSON(t, wireBlock{Rows: 1, Cols: 1, Dense: []float64{1}, Y: []float64{0}, Scale: bad})
		if _, err := appendBlocksJSON(nil, []measBlock{{m: canonicalMatrix(strategyMust(t, "identity", 2)), y: []float64{1, bad}}}); err == nil {
			t.Fatalf("appendBlocksJSON accepted a %v answer", bad)
		}
	}
}

func strategyMust(t *testing.T, name string, n int) mat.Matrix {
	t.Helper()
	m, err := strategyByName(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCommitWithNonFiniteAnswerRecordsSpend: a block the encoder
// refuses (as json.Marshal refused it) cannot be framed, so the commit
// is never applied — no block, no generation, nothing a replay or a
// replica could not rebuild — and the dataset stays writable. The
// budget the measurement charged is spent all the same, so it is
// recorded as a budget-restore record: a ledger leaf that survives a
// restart.
func TestCommitWithNonFiniteAnswerRecordsSpend(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{StateDir: dir})
	d, err := s.CreateDataset("nan", "piecewise", 8, 100, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Summary()
	sess := d.kern.NewSession()
	y, scale, err := sess.Bind(d.root).VectorLaplace(strategyMust(t, "identity", 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	y[3] = math.NaN()
	pc := prepareCommit([]measBlock{{m: strategyMust(t, "identity", 8), y: y, scale: scale}})
	if pc.err == nil {
		t.Fatal("prepareCommit encoded a NaN answer")
	}
	d.mu.Lock()
	rcpt, err := d.commitBlocksLocked(pc, commitMeta{Op: "measure:identity", Session: sess.ID(), Charges: sess.Charges(), Eps: 1})
	d.mu.Unlock()
	if err == nil || rcpt != (AuditReceipt{}) {
		t.Fatalf("unframeable commit: receipt %+v, err %v; want an error", rcpt, err)
	}
	after := d.Summary()
	if after.Generation != before.Generation || after.Measurements != 0 || after.ReadOnly {
		t.Fatalf("unframeable commit applied or degraded: %+v", after)
	}
	if after.Consumed != 1 || after.AuditSize != before.AuditSize+1 || after.WALOffset <= before.WALOffset {
		t.Fatalf("spend not recorded: consumed %v, ledger %d→%d, stream %d→%d",
			after.Consumed, before.AuditSize, after.AuditSize, before.WALOffset, after.WALOffset)
	}
	if _, err := d.Measure("identity", 1); err != nil {
		t.Fatalf("measure after the refused commit: %v", err)
	}
	s.Close()

	s2 := New(Config{StateDir: dir})
	defer s2.Close()
	d2, err := s2.CreateDataset("nan", "piecewise", 8, 100, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum := d2.Summary(); sum.Consumed != 2 || sum.Generation != 1 || sum.AuditSize != after.AuditSize+1 {
		t.Fatalf("restart: consumed %v, generation %d, ledger %d; want 2, 1, %d",
			sum.Consumed, sum.Generation, sum.AuditSize, after.AuditSize+1)
	}
}

// FuzzBlockJSON feeds arbitrary field values through both encoders.
func FuzzBlockJSON(f *testing.F) {
	f.Add(3, 4, 1.5, -2.0, 1e21, 1e-7, uint8(0))
	f.Add(0, 0, 0.0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, uint8(1))
	f.Add(-1, 1<<40, math.NaN(), math.Inf(1), 1.0, 2.0, uint8(2))
	f.Fuzz(func(t *testing.T, rows, cols int, a, b, c, d float64, shape uint8) {
		blk := wireBlock{Rows: rows, Cols: cols, Scale: d}
		switch shape % 4 {
		case 0:
			blk.Dense, blk.Y = []float64{a, b, c}, []float64{d, a}
		case 1:
			blk.Sparse, blk.Y = []wireTriplet{{R: rows, C: cols, V: a}, {R: cols, C: rows, V: b}}, []float64{c}
		case 2:
			blk.Y = []float64{}
		case 3:
			blk.Dense, blk.Sparse = []float64{a}, []wireTriplet{{V: b}}
		}
		checkBlockJSON(t, blk)
	})
}
