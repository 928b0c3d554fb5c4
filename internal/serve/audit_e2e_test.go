package serve

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core/plans"
	"repro/internal/mat"
	"repro/internal/wal"
)

// fetchCheckpoint pulls and signature-verifies the signed tree head,
// returning it with the parsed root.
func fetchCheckpoint(t *testing.T, base, name string) (audit.Checkpoint, [audit.HashSize]byte) {
	t.Helper()
	var ckpt audit.Checkpoint
	if code := getJSON(t, base+"/v1/datasets/"+name+"/audit/checkpoint", &ckpt); code != 200 {
		t.Fatalf("checkpoint status %d", code)
	}
	root, err := audit.ParseHash(ckpt.Root)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := hex.DecodeString(ckpt.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := hex.DecodeString(ckpt.Signature)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.VerifyCheckpoint(ed25519.PublicKey(pub), name, ckpt.Size, root, sig); err != nil {
		t.Fatalf("tree head signature: %v", err)
	}
	return ckpt, root
}

// TestAuditEndToEnd is the acceptance walk for the ledger: a session
// of plan and strategy measurements across a server restart, with a
// client-side verifier proving every checkpoint pair consistent and
// every charge included — then proving that tampered history (edited
// leaf, truncated tree, forged signature) fails verification.
func TestAuditEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, AuditKey: priv}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	d, err := s1.CreateDatasetWithOptions("census", "piecewise", 128, 5000, 42, 10, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	var heads []audit.Checkpoint
	snap := func(base string) {
		ckpt, _ := fetchCheckpoint(t, base, "census")
		heads = append(heads, ckpt)
	}
	snap(ts1.URL) // empty ledger

	if _, err := d.MeasurePlan("DAWA", 1, plans.Params{}); err != nil {
		t.Fatal(err)
	}
	snap(ts1.URL)
	if _, err := d.Measure("hb", 1); err != nil {
		t.Fatal(err)
	}
	snap(ts1.URL)
	if _, err := d.Query(mat.HierarchicalRanges(128, 2)); err != nil {
		t.Fatal(err)
	}
	snap(ts1.URL) // queries are post-processing: no new leaves
	if heads[3].Size != heads[2].Size || heads[3].Root != heads[2].Root {
		t.Fatal("a query changed the audit ledger")
	}
	ts1.Close()
	s1.Close()

	// Restart: replay must land on the persisted roots, and new charges
	// keep extending the same tree.
	s2 := New(cfg)
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	d2, err := s2.CreateDatasetWithOptions("census", "piecewise", 128, 5000, 42, 10, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap(ts2.URL)
	if got, want := heads[4], heads[3]; got.Size != want.Size || got.Root != want.Root {
		t.Fatalf("restart changed the ledger head: %d/%s -> %d/%s", want.Size, want.Root, got.Size, got.Root)
	}
	if _, err := d2.Measure("identity", 0.5); err != nil {
		t.Fatal(err)
	}
	snap(ts2.URL)

	final, finalRoot := fetchCheckpoint(t, ts2.URL, "census")
	if final.Size < 3 {
		t.Fatalf("final ledger has %d leaves, want >= 3 (plan + 2 measures)", final.Size)
	}

	// Every checkpoint pair is an append-only extension.
	for i := 0; i < len(heads); i++ {
		for j := i + 1; j < len(heads); j++ {
			from, to := heads[i], heads[j]
			if from.Size == to.Size {
				if from.Root != to.Root {
					t.Fatalf("heads %d,%d: same size %d, roots differ", i, j, from.Size)
				}
				continue
			}
			if from.Size == 0 {
				continue // extending the empty tree is trivially consistent
			}
			var cons audit.ConsistencyResponse
			u := fmt.Sprintf("%s/v1/datasets/census/audit/consistency?from=%d&to=%d", ts2.URL, from.Size, to.Size)
			if code := getJSON(t, u, &cons); code != 200 {
				t.Fatalf("consistency %d..%d: status %d", from.Size, to.Size, code)
			}
			if cons.FromRoot != from.Root || cons.ToRoot != to.Root {
				t.Fatalf("consistency %d..%d: roots drifted from the signed heads", from.Size, to.Size)
			}
			fr, _ := audit.ParseHash(from.Root)
			tr, _ := audit.ParseHash(to.Root)
			proof, err := audit.ParseHashes(cons.Proof)
			if err != nil {
				t.Fatal(err)
			}
			if err := audit.VerifyConsistency(from.Size, to.Size, fr, tr, proof); err != nil {
				t.Fatalf("consistency %d..%d: %v", from.Size, to.Size, err)
			}
		}
	}

	// Every charge is provably included in the final head.
	for i := uint64(0); i < final.Size; i++ {
		var inc audit.InclusionResponse
		u := fmt.Sprintf("%s/v1/datasets/census/audit/proof?index=%d&size=%d", ts2.URL, i, final.Size)
		if code := getJSON(t, u, &inc); code != 200 {
			t.Fatalf("proof %d: status %d", i, code)
		}
		leaf, err := audit.ParseHash(inc.Leaf)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := audit.ParseHashes(inc.Proof)
		if err != nil {
			t.Fatal(err)
		}
		if err := audit.VerifyInclusion(leaf, i, final.Size, proof, finalRoot); err != nil {
			t.Fatalf("inclusion %d: %v", i, err)
		}

		// Edited leaf: a single flipped bit in the committed entry can
		// no longer be proven against the signed root.
		leaf[0] ^= 1
		if err := audit.VerifyInclusion(leaf, i, final.Size, proof, finalRoot); err == nil {
			t.Fatalf("edited leaf %d still proves inclusion", i)
		}
	}

	// Truncated tree: a verifier pinned at the final head must reject a
	// server that serves any strictly older (shorter) history — the old
	// root cannot be proven consistent *forward* into itself under the
	// pinned size, and no proof exists for sizes above the head.
	older := heads[2]
	or, _ := audit.ParseHash(older.Root)
	if err := audit.VerifyConsistency(final.Size, final.Size, finalRoot, or, nil); err == nil && older.Root != final.Root {
		t.Fatal("truncated history verified against the pinned head")
	}
	var cons audit.ConsistencyResponse
	u := fmt.Sprintf("%s/v1/datasets/census/audit/consistency?from=%d&to=%d", ts2.URL, older.Size, final.Size)
	if code := getJSON(t, u, &cons); code != 200 {
		t.Fatalf("consistency status %d", code)
	}
	proof, _ := audit.ParseHashes(cons.Proof)
	if err := audit.VerifyConsistency(older.Size, final.Size, finalRoot, finalRoot, proof); err == nil {
		t.Fatal("consistency proof accepted a mismatched from-root (rewritten prefix)")
	}

	// Forged signature: one flipped signature bit fails verification.
	sig, _ := hex.DecodeString(final.Signature)
	sig[0] ^= 1
	pub, _ := hex.DecodeString(final.PublicKey)
	if err := audit.VerifyCheckpoint(ed25519.PublicKey(pub), "census", final.Size, finalRoot, sig); err == nil {
		t.Fatal("forged signature verified")
	}
}

// TestAuditTamperedWALFailsCreate: rewriting a committed measurement
// record in the on-disk WAL (with a valid CRC, so the frame itself
// scans clean) makes replay derive a different leaf, and the persisted
// audit checkpoint record refuses the create — tampered history cannot
// be loaded silently.
func TestAuditTamperedWALFailsCreate(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir}
	s1 := New(cfg)
	d, err := s1.CreateDatasetWithOptions("ds", "piecewise", 32, 500, 3, 4, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("total", 1); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Rebuild the log with the measurement's consumed value edited —
	// every frame CRC-valid, history changed.
	path := walFilePath(dir, "ds")
	logBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.Scan(logBytes)
	if len(recs) == 0 {
		t.Fatal("empty wal")
	}
	rebuilt := []byte(wal.Magic)
	edited := false
	for _, rec := range recs {
		payload := rec.Payload
		if rec.Type == wal.TypeMeasurementBlock {
			var m walMeas
			if err := json.Unmarshal(payload, &m); err != nil {
				t.Fatal(err)
			}
			m.Consumed = 0.25 // retroactively shrink the spend
			payload, err = json.Marshal(&m)
			if err != nil {
				t.Fatal(err)
			}
			edited = true
		}
		rebuilt = wal.AppendFrame(rebuilt, rec.Type, payload)
	}
	if !edited {
		t.Fatal("no measurement record to edit")
	}
	if err := os.WriteFile(path, rebuilt, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	defer s2.Close()
	if _, err := s2.CreateDatasetWithOptions("ds", "piecewise", 32, 500, 3, 4, SolverNormal, 0); err == nil {
		t.Fatal("tampered WAL loaded cleanly")
	}
}
