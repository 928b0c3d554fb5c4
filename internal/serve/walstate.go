package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core/inference"
	"repro/internal/wal"
)

// This file is measurement-log persistence (Config.StateDir): each
// commit appends one CRC-framed record to the dataset's write-ahead
// log — O(delta) durable bytes per measurement, framed once and shared
// with the replication stream — and a restart rebuilds the exact
// pre-crash state from the last checkpoint plus a log replay. The
// checkpoint file is the snapshot format of persist.go
// (compaction folds a grown log back into it), at the path the retired
// snapshot-per-commit backend wrote, so a state directory from that
// backend loads unmodified.
//
// Record payloads (JSON, strict-decoded on replay):
//
//	dataset-create    — dataset identity (name, domain, eps_total);
//	                    first record of a fresh log
//	measurement-block — one commit: the log generation it produced, the
//	                    absolute budget consumed at commit time, and the
//	                    appended blocks in the snapshot codec (which is
//	                    what keeps a replayed log byte-identical solver
//	                    input)
//	budget-restore    — absolute consumed without measurements (a failed
//	                    plan's partial spend)
//	checkpoint-marker — generation + consumed of the checkpoint a
//	                    compacted log sits on
//
// Replay is idempotent so compaction's crash windows are harmless:
// measurement records are skipped when their generation is already
// covered by the checkpoint, and budget values are absolute (replay
// takes the max — never re-granting spent budget, even when a record's
// consumed includes a concurrent session's charge whose own record
// never landed).
//
// The estimate panel is NOT logged per commit (it would dominate the
// write amplification the WAL exists to remove). It persists to an
// advisory sidecar file, written at the first commit after a refresh:
// the panel the last commit saw, one generation behind the log. That is
// the start the uninterrupted process's next iterative solve had, so a
// restarted one warm-starts from the same panel and answers bit for
// bit the same (restart = before). A missing or invalid sidecar only
// costs the warm start.
//
// When an append fails (disk gone, injected fault), the committed
// measurement stays committed — its budget is spent and failing the
// request would invite a retried double spend — but the dataset
// degrades to explicit read-only: further Measure/MeasurePlan calls
// fail with ErrReadOnly (HTTP 503) while queries keep serving from the
// warm panel. A restart recovers the clean log prefix.

// ErrReadOnly: the dataset degraded to read-only after a persistence
// failure — writes are refused (503) so the durability gap cannot grow,
// while queries keep serving from the warm panel.
var ErrReadOnly = errors.New("serve: dataset is read-only after a persistence failure")

// walCreate is the dataset-create record payload.
type walCreate struct {
	Name     string  `json:"name"`
	Domain   int     `json:"domain"`
	EpsTotal float64 `json:"eps_total"`
}

// walMeas is the measurement-block record payload: one commit. The
// attribution fields (Op, Session, Charges, Eps) feed the audit
// ledger's leaf for the commit; they are omitempty so logs written
// before the ledger existed replay unchanged (their leaves carry zero
// attribution, identically at every replay site).
type walMeas struct {
	Gen      uint64          `json:"gen"`
	Consumed float64         `json:"consumed"`
	Blocks   []snapshotBlock `json:"blocks"`
	Op       string          `json:"op,omitempty"`
	Session  int             `json:"session,omitempty"`
	Charges  int             `json:"charges,omitempty"`
	Eps      float64         `json:"eps,omitempty"`
	// Full marks a collapsed full-history record (a replication
	// bootstrap frame): apply replaces the measurement log instead of
	// appending to it, so a follower resyncing from offset zero does
	// not duplicate blocks it already holds.
	Full bool `json:"full,omitempty"`
}

// walBudget is the budget-restore record payload (attribution fields
// as in walMeas).
type walBudget struct {
	Consumed float64 `json:"consumed"`
	Op       string  `json:"op,omitempty"`
	Session  int     `json:"session,omitempty"`
	Charges  int     `json:"charges,omitempty"`
	Eps      float64 `json:"eps,omitempty"`
}

// walMarker is the checkpoint-marker record payload.
type walMarker struct {
	Gen      uint64  `json:"gen"`
	Consumed float64 `json:"consumed"`
}

// panelSidecar is the advisory warm-start panel file.
type panelSidecar struct {
	Domain int       `json:"domain"`
	K      int       `json:"k"`
	Panel  []float64 `json:"panel"`
}

// walFilePath and panelFilePath name a dataset's log and panel sidecar
// under a state directory (path-escaped like snapshotPath).
func walFilePath(stateDir, name string) string {
	return filepath.Join(stateDir, url.PathEscape(name)+".wal")
}

func panelFilePath(stateDir, name string) string {
	return filepath.Join(stateDir, url.PathEscape(name)+".panel.json")
}

// decodeStrict unmarshals a record payload rejecting unknown fields and
// trailing data: a CRC-valid record that does not decode exactly is
// corruption the checksum cannot see, and replay must fail the create
// rather than guess.
func decodeStrict(payload []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data")
	}
	return nil
}

func validConsumed(v float64) bool {
	return v >= 0 && !math.IsInf(v, 0) // NaN fails the >= 0 comparison
}

// walOpts builds the dataset's log options from its config.
func (d *Dataset) walOpts() wal.Options {
	return wal.Options{Policy: d.cfg.Fsync, Interval: d.cfg.FsyncInterval, FS: d.fs}
}

// checkIdentity validates a persisted identity (checkpoint or wal
// create record) against the dataset being created.
func (d *Dataset) checkIdentity(src, name string, domain int, epsTotal float64) error {
	if name != d.name || domain != d.n {
		return fmt.Errorf("%w: %s identity %q/%d does not match dataset %q/%d",
			ErrSnapshot, src, name, domain, d.name, d.n)
	}
	if epsTotal != d.kern.EpsTotal() {
		return fmt.Errorf("%w: %s eps_total %g does not match dataset %g",
			ErrSnapshot, src, epsTotal, d.kern.EpsTotal())
	}
	return nil
}

// loadStateWAL restores the dataset from its checkpoint plus a log
// replay, then leaves the log open for appends. Called once at create
// time, before the dataset is published. Torn log tails are recovery
// (the clean prefix loads); a checkpoint or CRC-valid record that fails
// validation fails the create — silently dropping it could re-grant
// spent budget.
func (d *Dataset) loadStateWAL() error {
	var consumed float64
	haveCkpt := false
	data, err := d.fs.ReadFile(d.statePath)
	switch {
	case err == nil:
		s, blocks, lerr := loadSnapshot(data)
		if lerr != nil {
			return fmt.Errorf("checkpoint for %q: %w", d.name, lerr)
		}
		if err := d.checkIdentity("checkpoint", s.Name, s.Domain, s.EpsTotal); err != nil {
			return err
		}
		d.blocks = blocks
		for _, b := range blocks {
			d.rows += len(b.y)
		}
		d.gen = s.Generation
		consumed = s.Consumed
		if s.Panel != nil {
			d.panel = append([]float64(nil), s.Panel...)
			d.k = s.PanelK
		}
		// Install the checkpoint's audit ledger and raise the leaf-
		// derivation watermarks to the checkpoint state: records at or
		// below it (compaction crash windows) must stay leaf-neutral on
		// replay, exactly as they were in the pre-crash tree. A legacy
		// checkpoint without an audit section restores an empty tree with
		// the same watermarks — its history predates the ledger.
		if err := d.restoreAuditFromSnapshot(s); err != nil {
			return fmt.Errorf("checkpoint for %q: %w", d.name, err)
		}
		haveCkpt = true
	case errors.Is(err, os.ErrNotExist):
		// No checkpoint yet: the wal (possibly empty) is the whole story.
	default:
		return fmt.Errorf("%w: read checkpoint for %q: %v", ErrSnapshot, d.name, err)
	}

	l, recs, err := wal.Open(d.walPath, d.walOpts())
	if err != nil {
		return fmt.Errorf("%w: wal for %q: %v", ErrSnapshot, d.name, err)
	}
	fail := func(format string, args ...any) error {
		l.Close()
		return fmt.Errorf("%w: wal for %q: %s", ErrSnapshot, d.name, fmt.Sprintf(format, args...))
	}
	for i, rec := range recs {
		switch rec.Type {
		case wal.TypeDatasetCreate:
			var c walCreate
			if err := decodeStrict(rec.Payload, &c); err != nil {
				return fail("record %d: %v", i, err)
			}
			if err := d.checkIdentity("wal", c.Name, c.Domain, c.EpsTotal); err != nil {
				l.Close()
				return err
			}
		case wal.TypeMeasurementBlock:
			var m walMeas
			if err := decodeStrict(rec.Payload, &m); err != nil {
				return fail("record %d: %v", i, err)
			}
			// applyMeasLocked is the strict replay step shared with follower
			// apply (repl.go): generation guard (a skip is the
			// compaction-crash replay window), block decode, append. The
			// dataset is unpublished, so holding no lock is fine.
			ok, err := d.applyMeasLocked(m)
			if err != nil {
				return fail("record %d: %v", i, err)
			}
			// The audit leaf derives from the same record payload under the
			// same watermark rule the primary commit used, so replay grows
			// the identical tree (skipped records are leaf-neutral).
			if err := d.replayMeasLeafLocked(m); err != nil {
				return fail("record %d: %v", i, err)
			}
			d.walRecs++
			if ok && m.Consumed > consumed {
				consumed = m.Consumed
			}
		case wal.TypeBudgetRestore:
			var b walBudget
			if err := decodeStrict(rec.Payload, &b); err != nil {
				return fail("record %d: %v", i, err)
			}
			if !validConsumed(b.Consumed) {
				return fail("record %d: consumed %g", i, b.Consumed)
			}
			d.auditSpendLeafLocked(b)
			d.walRecs++
			if b.Consumed > consumed {
				consumed = b.Consumed
			}
		case wal.TypeCheckpointMarker:
			var mk walMarker
			if err := decodeStrict(rec.Payload, &mk); err != nil {
				return fail("record %d: %v", i, err)
			}
			if !validConsumed(mk.Consumed) {
				return fail("record %d: consumed %g", i, mk.Consumed)
			}
			// A marker names the checkpoint the log sits on; without that
			// checkpoint the generations it covers are gone, and loading
			// the remainder would silently drop measurements (and budget).
			if !haveCkpt {
				return fail("record %d: checkpoint marker without a checkpoint file", i)
			}
			if mk.Gen > d.gen {
				return fail("record %d: marker generation %d ahead of checkpoint %d", i, mk.Gen, d.gen)
			}
			if mk.Consumed > consumed {
				consumed = mk.Consumed
			}
		case wal.TypeAuditCheckpoint:
			var c walAuditCkpt
			if err := decodeStrict(rec.Payload, &c); err != nil {
				return fail("record %d: %v", i, err)
			}
			// The persisted ledger head is the tamper-evidence anchor:
			// replay must reproduce exactly the root that was committed (and
			// possibly served to clients as a signed checkpoint). A mismatch
			// is a tampered or corrupted history and fails the create.
			if err := d.checkAuditCheckpointLocked(c); err != nil {
				return fail("record %d: %v", i, err)
			}
		case wal.TypeAuditState:
			// Follower local logs open with the shipped full-ledger state
			// (the bootstrap frame a resync started from); replay reinstalls
			// it with the same prefix-consistency checks apply used.
			var st walAuditState
			if err := decodeStrict(rec.Payload, &st); err != nil {
				return fail("record %d: %v", i, err)
			}
			if _, err := d.installAuditStateLocked(st); err != nil {
				return fail("record %d: %v", i, err)
			}
		default:
			return fail("record %d: unknown type %d", i, rec.Type)
		}
	}
	if consumed > 0 {
		if err := d.kern.RestoreConsumed(consumed); err != nil {
			l.Close()
			return fmt.Errorf("wal for %q: %w", d.name, err)
		}
	}
	if len(recs) == 0 {
		// Fresh (or fully torn) log: pin the dataset identity first.
		payload, err := json.Marshal(&walCreate{Name: d.name, Domain: d.n, EpsTotal: d.kern.EpsTotal()})
		if err == nil {
			err = l.Append(wal.TypeDatasetCreate, payload)
		}
		if err != nil {
			l.Close()
			return fmt.Errorf("%w: wal for %q: %v", ErrSnapshot, d.name, err)
		}
	}
	d.wlog = l
	d.loadPanelSidecar()
	d.stale = true
	return nil
}

// loadPanelSidecar restores the advisory warm-start panel. Purely
// best-effort: anything invalid is logged and ignored — the panel is a
// solve seed, never authoritative state. A sidecar overrides a
// checkpoint's embedded panel (both are written at commit time; the
// sidecar is at least as fresh).
func (d *Dataset) loadPanelSidecar() {
	data, err := d.fs.ReadFile(d.panelPath)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			log.Printf("serve: dataset %q: panel sidecar read (ignored): %v", d.name, err)
		}
		return
	}
	var pc panelSidecar
	if err := decodeStrict(data, &pc); err != nil {
		log.Printf("serve: dataset %q: panel sidecar decode (ignored): %v", d.name, err)
		return
	}
	if pc.Domain != d.n || pc.K < 1 || pc.Domain > maxSnapshotDomain/pc.K || len(pc.Panel) != d.n*pc.K {
		log.Printf("serve: dataset %q: panel sidecar shape %d×%d (ignored)", d.name, pc.Domain, pc.K)
		return
	}
	for _, v := range pc.Panel {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			log.Printf("serve: dataset %q: non-finite panel sidecar entry (ignored)", d.name)
			return
		}
	}
	d.panel, d.k = pc.Panel, pc.K
}

// degradeLocked flips the dataset to explicit read-only after an
// unrecoverable persistence failure. Sticky until restart: the on-disk
// state is a clean prefix of the in-memory state, and accepting more
// writes would only widen that gap. Caller holds d.mu.
func (d *Dataset) degradeLocked(cause error) {
	if d.readOnly {
		return
	}
	d.readOnly = true
	d.roCause = cause
	//lint:ignore lockscope error path: the single read-only degrade announcement; it fires at most once per dataset lifetime
	log.Printf("serve: dataset %q: degrading to read-only, queries keep serving: %v", d.name, cause)
}

// checkWritable gates the commit paths (Measure, MeasurePlan) before
// any budget is spent: a degraded dataset must refuse the charge, not
// take it and fail to log it — and a follower must refuse with the
// primary's address. Both run before any kernel session is created, so
// budget spend on a replica is impossible by construction.
func (d *Dataset) checkWritable() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.follower {
		return &NotPrimaryError{Dataset: d.name, Primary: d.primary}
	}
	if d.readOnly {
		return fmt.Errorf("dataset %q (%v): %w", d.name, d.roCause, ErrReadOnly)
	}
	return nil
}

// pendingCommit is the part of a commit that needs nothing from the
// dataset state, done before d.mu is taken (prepareCommit): the blocks
// in canonical form, their one JSON encoding and its audit commitment.
type pendingCommit struct {
	blocks []measBlock
	// buf is recordHeadroom spare bytes, then the encoded "blocks" array;
	// frameCommitLocked builds the frame around it in place.
	buf        []byte
	commitment string
	// err is an encode failure (a non-finite value): the blocks still
	// commit in memory and the persist-failed path runs.
	err error
}

// recordHeadroom holds the frame header and the longest envelope head,
// {"gen":<20 digits>,"consumed":<24 characters>,"blocks": — 73 bytes.
const recordHeadroom = 96

// prepareCommit canonicalises, digests, encodes and hashes a commit's
// blocks: the O(nnz) work of a commit, which belongs before d.mu.
func prepareCommit(blocks []measBlock) pendingCommit {
	for i := range blocks {
		blocks[i].m = canonicalMatrix(blocks[i].m)
		blocks[i].digest = inference.Digest(blocks[i].m)
	}
	pc := pendingCommit{blocks: blocks}
	pc.buf, pc.err = appendBlocksJSON(make([]byte, recordHeadroom), blocks)
	if pc.err == nil {
		sum := sha256.Sum256(pc.buf[recordHeadroom:])
		pc.commitment = hex.EncodeToString(sum[:])
	}
	return pc
}

// appendBlocksJSON appends the JSON array of the blocks' snapshot forms:
// the "blocks" value of a measurement record and the bytes its audit
// commitment hashes.
func appendBlocksJSON(dst []byte, blocks []measBlock) ([]byte, error) {
	dst = append(dst, '[')
	for i, b := range blocks {
		if i > 0 {
			dst = append(dst, ',')
		}
		sb := encodeBlock(b)
		// Room for typical entries ({"r":…,"c":…,"v":1}, a noisy answer)
		// in one allocation; a short guess only costs an append growth.
		dst = slices.Grow(dst, 64+28*len(sb.Sparse)+3*len(sb.Dense)+21*len(sb.Y))
		var err error
		if dst, err = sb.appendJSON(dst); err != nil {
			return nil, err
		}
	}
	return append(dst, ']'), nil
}

// frameCommitLocked completes the measurement-block record of a commit
// that just appended pc.blocks at the current generation and frames it
// once, for the replication stream (which carries it even without
// persistence) and the WAL alike; the envelope feeds the audit leaf.
// The envelope is marshaled with no blocks and pc's encoding replaces
// its "blocks":null — no earlier field is a string, so the first match
// is that member. Caller holds d.mu.
func (d *Dataset) frameCommitLocked(pc pendingCommit, meta commitMeta) (walMeas, []byte, error) {
	rec := walMeas{
		Gen:      d.gen,
		Consumed: d.kern.Consumed(),
		Op:       meta.Op,
		Session:  meta.Session,
		Charges:  meta.Charges,
		Eps:      meta.Eps,
	}
	env, err := json.Marshal(&rec)
	if err = errors.Join(pc.err, err); err != nil {
		return walMeas{}, nil, fmt.Errorf("serve: encode wal record for %q: %w", d.name, err)
	}
	null := bytes.Index(env, []byte(`"blocks":null`)) + len(`"blocks":`)
	start := recordHeadroom - null - wal.FrameHeader
	copy(pc.buf[start+wal.FrameHeader:], env[:null])
	buf := append(pc.buf, env[null+len("null"):]...)
	return rec, wal.SealFrame(buf[start:], wal.TypeMeasurementBlock), nil
}

// persistCommitLocked makes one commit durable: it appends the
// already-framed measurement-block record (O(delta) bytes — the very
// frame commitBlocksLocked put on the replication stream), then
// updates the panel sidecar if a refresh ran since the last commit and
// compacts the log when it is due. Caller holds d.mu and has already
// appended blocks to the warm log (they are committed regardless — see
// commitBlocksLocked).
func (d *Dataset) persistCommitLocked(frame []byte) error {
	if d.statePath == "" {
		return nil
	}
	if d.readOnly {
		return nil // already degraded and logged; nothing more to lose durably
	}
	//lint:ignore lockscope commit-section WAL append is the design: one O(delta) record per commit keeps disk order equal to generation order, and the fsync policy bounds the hold (PR 7)
	if err := d.wlog.AppendFramed(frame); err != nil {
		return err
	}
	d.walRecs++
	d.persistPanelLocked()
	d.maybeCompactLocked()
	return nil
}

// commitSpendLocked records a budget charge without measurements (a
// failed plan's partial spend) on the replication stream and in the
// durability backend: one budget-restore record carrying the absolute
// consumed value. The spend is also a ledger leaf — a failed plan's
// partial charge is exactly the kind of budget mutation an auditor
// must see — followed by a checkpoint record. Caller holds d.mu.
func (d *Dataset) commitSpendLocked(meta commitMeta) error {
	rec := walBudget{
		Consumed: d.kern.Consumed(),
		Op:       meta.Op,
		Session:  meta.Session,
		Charges:  meta.Charges,
		Eps:      meta.Eps,
	}
	payload, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("serve: encode wal record for %q: %w", d.name, err)
	}
	frame := d.appendReplLocked(wal.TypeBudgetRestore, payload)
	d.auditSpendLeafLocked(rec)
	err = d.persistSpendLocked(frame)
	d.auditCheckpointLocked()
	return err
}

// persistSpendLocked makes the framed budget-restore record durable.
// Caller holds d.mu.
func (d *Dataset) persistSpendLocked(frame []byte) error {
	if d.statePath == "" {
		return nil
	}
	if d.readOnly {
		return nil
	}
	//lint:ignore lockscope commit-section WAL append is the design: a failed plan's spend must hit the log before the next commit can reorder past it
	if err := d.wlog.AppendFramed(frame); err != nil {
		return err
	}
	d.walRecs++
	d.maybeCompactLocked()
	return nil
}

// persistPanelLocked writes the panel sidecar if the panel changed
// since the last write (panelDirty, set by the refresh paths). Writing
// at commit time — not refresh time — is what restart bit-identity of
// the iterative solvers rests on: the persisted panel is the one the
// last commit saw, one generation behind the log, which is exactly the
// warm start the uninterrupted process's next solve used. Advisory:
// failures are logged, never degrade the dataset. Caller holds d.mu.
func (d *Dataset) persistPanelLocked() {
	if !d.panelDirty || d.panel == nil || d.panelPath == "" {
		return
	}
	data, err := json.Marshal(&panelSidecar{Domain: d.n, K: d.k, Panel: d.panel})
	if err == nil {
		//lint:ignore lockscope the sidecar is written at commit time so a restart warm-starts from the panel the uninterrupted process would have (restart bit-identity); advisory, and small (k columns)
		err = wal.WriteFileAtomic(d.fs, d.panelPath, data)
	}
	if err != nil {
		//lint:ignore lockscope error path: advisory sidecar failures log once and never degrade
		log.Printf("serve: dataset %q: panel sidecar write (advisory): %v", d.name, err)
		return
	}
	d.panelDirty = false
}

// maybeCompactLocked folds the log into a checkpoint once
// Config.CheckpointEvery records have accumulated: the full state is
// written as a snapshot-format checkpoint and the log atomically
// restarts at a checkpoint marker. A compaction failure is not a
// durability failure — the pre-compaction log still holds everything —
// so the dataset keeps serving on the old log when it can reopen it,
// and degrades only when it cannot. Caller holds d.mu.
func (d *Dataset) maybeCompactLocked() {
	if d.cfg.CheckpointEvery <= 0 || d.walRecs < d.cfg.CheckpointEvery {
		return
	}
	data, err := d.encodeSnapshotLocked()
	if err != nil {
		//lint:ignore lockscope error path: compaction giving up must be visible; the pre-compaction log still holds everything
		log.Printf("serve: dataset %q: checkpoint encode failed, keeping log: %v", d.name, err)
		return
	}
	marker, err := json.Marshal(&walMarker{Gen: d.gen, Consumed: d.kern.Consumed()})
	if err != nil {
		//lint:ignore lockscope error path: compaction giving up must be visible; the pre-compaction log still holds everything
		log.Printf("serve: dataset %q: checkpoint marker encode failed, keeping log: %v", d.name, err)
		return
	}
	//lint:ignore lockscope compaction must swap the log against a quiesced commit path, which only the dataset mutex guarantees; it runs every CheckpointEvery commits, not per request
	if err := d.wlog.Close(); err != nil {
		// The records being folded into the checkpoint are already read
		// back from memory; a failed final sync cannot lose them. Proceed —
		// Compact replaces the file wholesale.
		//lint:ignore lockscope error path: a failed pre-compaction sync is logged once and compaction proceeds
		log.Printf("serve: dataset %q: wal close before compaction: %v", d.name, err)
	}
	//lint:ignore lockscope compaction must swap the log against a quiesced commit path, which only the dataset mutex guarantees; it runs every CheckpointEvery commits, not per request
	nl, err := wal.Compact(d.walPath, d.statePath, data, marker, d.walOpts())
	if err != nil {
		//lint:ignore lockscope error path: compaction failure is logged once, then the old log is reopened
		log.Printf("serve: dataset %q: compaction failed: %v", d.name, err)
		//lint:ignore lockscope reopening the surviving log is the compaction-failure recovery; it must finish before the commit path resumes
		ol, _, oerr := wal.Open(d.walPath, d.walOpts())
		if oerr != nil {
			d.degradeLocked(fmt.Errorf("compaction failed (%v) and log reopen failed: %w", err, oerr))
			return
		}
		// Replay-idempotence makes every crash window here safe: whatever
		// Compact managed to write, checkpoint + surviving log still load
		// to this exact state.
		d.wlog = ol
		return
	}
	d.wlog = nl
	d.walRecs = 0
}

// closePersistence syncs and closes the dataset's log (no-op without
// persistence). Called from Server.Close after the batcher stops.
func (d *Dataset) closePersistence() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wlog == nil {
		return
	}
	//lint:ignore lockscope shutdown path: the final fsync+close runs after the batcher drained, with no traffic left to stall
	if err := d.wlog.Close(); err != nil {
		//lint:ignore lockscope error path: shutdown close failures log once
		log.Printf("serve: dataset %q: wal close: %v", d.name, err)
	}
}
