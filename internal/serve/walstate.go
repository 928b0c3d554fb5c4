package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core/inference"
	"repro/internal/wal"
)

// This file is the dataset's measurement log as a state machine, and
// its persistence (Config.StateDir).
//
// One transition, applyRecordLocked, turns a log record into state: it
// appends the record's blocks (or, for a collapsed bootstrap record,
// replaces the log with them), advances the generation, raises the
// consumed budget to the record's absolute value, marks the panel stale,
// derives the audit leaf under the watermark rule (audit.go) and sinks
// the record. Three callers feed it, and only their gates differ:
//
//   - The primary commit (commitBlocksLocked, commitSpendLocked) checks
//     writability and budget before d.mu, then passes the record it
//     built — canonical blocks, commitment and sealed frame from
//     prepareCommit — so it never decodes what it just encoded.
//   - WAL replay (loadStateWAL) decodes each record with decodeRecord
//     and turns any error into a failed create.
//   - Follower apply (ApplyWALStream, repl.go) decodes each shipped
//     record with the same decodeRecord, before the lock, and latches a
//     replication error when the shipped audit ledger disagrees.
//
// Sinking (sinkLocked) puts the frame on the replication stream and in
// the local WAL. A state record — measurement or budget — counts toward
// Config.CheckpointEvery and compacts the log when due, and a
// measurement record also writes the panel sidecar; the audit records
// do neither. Replay sinks nothing, since the record is already in the
// log.
//
// Compaction replaces the log with the bootstrap records of the current
// state, the stream a follower resyncs from (bootstrapRecordsLocked), so
// a compacted log is an ordinary log with that head. On a primary the
// head loads whole or not at all (compactedHead), even when the damage
// is in the magic or the first frame; a follower reads a cut-short head
// as a torn tail and resyncs the rest from its primary.
//
// Record payloads (JSON, strict-decoded):
//
//	dataset-create    — dataset identity (name, domain, eps_total);
//	                    first record of every log and stream
//	measurement-block — one commit: the log generation it produced, the
//	                    absolute budget consumed at commit time, and the
//	                    appended blocks in the block codec (which is
//	                    what keeps a replayed log byte-identical solver
//	                    input); Full: a collapsed bootstrap record
//	budget-restore    — absolute consumed without measurements (a failed
//	                    plan's partial spend)
//	audit-*           — the ledger's head and full state (audit.go)
//
// The transition is idempotent, so compaction's crash windows and
// re-shipped frames are harmless: a measurement record whose generation
// the log already covers is skipped, and budget values are absolute —
// raising to one never re-grants spent budget, even when a record's
// consumed includes a concurrent session's charge whose own record
// never landed.
//
// The estimate panel is NOT logged per commit (it would dominate the
// write amplification the WAL exists to remove). It persists to an
// advisory sidecar file, written when a measurement record is sunk
// after a refresh: the panel the last commit saw, one generation behind
// the log. That is the start the uninterrupted process's next iterative
// solve had, so a restarted one warm-starts from the same panel and
// answers bit for bit the same (restart = before). A missing or invalid
// sidecar only costs the warm start.
//
// When an append fails (disk gone, injected fault), the applied record
// stays applied — its budget is spent and failing the request would
// invite a retried double spend — but the dataset degrades to explicit
// read-only: further Measure/MeasurePlan calls fail with ErrReadOnly
// (HTTP 503) while queries keep serving from the warm panel. A restart
// recovers the clean log prefix. A commit the primary cannot frame at
// all (a non-finite value) is never applied: its spend is recorded as a
// budget-restore record, as a failed plan's is, and the request fails.

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
	Gen      uint64      `json:"gen"`
	Consumed float64     `json:"consumed"`
	Blocks   []wireBlock `json:"blocks"`
	Op       string      `json:"op,omitempty"`
	Session  int         `json:"session,omitempty"`
	Charges  int         `json:"charges,omitempty"`
	Eps      float64     `json:"eps,omitempty"`
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

// panelSidecar is the advisory warm-start panel file.
type panelSidecar struct {
	Domain int       `json:"domain"`
	K      int       `json:"k"`
	Panel  []float64 `json:"panel"`
}

// walFilePath and panelFilePath name a dataset's log and panel sidecar
// under a state directory, and legacySnapshotPath the state file older
// versions kept beside the log. The name is path-escaped so
// client-chosen names cannot traverse outside the directory.
func walFilePath(stateDir, name string) string {
	return filepath.Join(stateDir, url.PathEscape(name)+".wal")
}

func panelFilePath(stateDir, name string) string {
	return filepath.Join(stateDir, url.PathEscape(name)+".panel.json")
}

func legacySnapshotPath(stateDir, name string) string {
	return filepath.Join(stateDir, url.PathEscape(name)+".snapshot.json")
}

// decodeStrict decodes one JSON value rejecting unknown fields and any
// non-whitespace after it: a CRC-valid record that does not decode
// exactly is corruption the checksum cannot see, and replay must fail
// the create rather than guess. Request bodies follow the same rule.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return errors.New("trailing data")
	default:
		return fmt.Errorf("trailing data: %w", err)
	}
}

func validConsumed(v float64) bool {
	return v >= 0 && !math.IsInf(v, 0) // NaN fails the >= 0 comparison
}

// checkIdentity validates a dataset-create record's identity against
// the dataset being created.
func (d *Dataset) checkIdentity(c *walCreate) error {
	if c.Name != d.name || c.Domain != d.n {
		return fmt.Errorf("%w: wal identity %q/%d does not match dataset %q/%d",
			ErrSnapshot, c.Name, c.Domain, d.name, d.n)
	}
	if c.EpsTotal != d.kern.EpsTotal() {
		return fmt.Errorf("%w: wal eps_total %g does not match dataset %g",
			ErrSnapshot, c.EpsTotal, d.kern.EpsTotal())
	}
	return nil
}

// record is one log record ready for applyRecordLocked: its type, its
// decoded payload (*walCreate, *walMeas, *walBudget, *walAuditCkpt or
// *walAuditState), and the sealed frame the sink publishes (nil on
// replay, where the record is already in the log).
// A measurement record also carries its blocks in canonical form and the
// hex SHA-256 commitment of their encoding.
type record struct {
	typ        wal.Type
	payload    any
	frame      []byte
	blocks     []measBlock
	commitment string
}

// decodeRecord strict-decodes and validates one record against a
// dataset of the given domain: everything about a record that needs no
// dataset state, so follower apply does it before taking d.mu.
func decodeRecord(rec wal.Record, domain int) (record, error) {
	r := record{typ: rec.Type}
	switch rec.Type {
	case wal.TypeDatasetCreate:
		r.payload = new(walCreate)
	case wal.TypeMeasurementBlock:
		r.payload = new(walMeas)
	case wal.TypeBudgetRestore:
		r.payload = new(walBudget)
	case wal.TypeAuditCheckpoint:
		r.payload = new(walAuditCkpt)
	case wal.TypeAuditState:
		r.payload = new(walAuditState)
	default:
		return r, fmt.Errorf("unknown record type %d", rec.Type)
	}
	if err := decodeStrict(bytes.NewReader(rec.Payload), r.payload); err != nil {
		return r, err
	}
	// Budget values are validated where they are raised to
	// (kernel.RestoreConsumed); a measurement's blocks land before its
	// budget does, so all of it is validated here.
	m, ok := r.payload.(*walMeas)
	if !ok {
		return r, nil
	}
	if m.Gen == 0 || !validConsumed(m.Consumed) {
		return r, fmt.Errorf("generation %d, consumed %g", m.Gen, m.Consumed)
	}
	// Every block decodes before any state mutates, so a mid-record
	// decode error cannot leave a partial append behind.
	r.blocks = make([]measBlock, len(m.Blocks))
	for i, sb := range m.Blocks {
		var err error
		if r.blocks[i], err = decodeBlock(i, sb, domain); err != nil {
			return r, err
		}
	}
	// The commitment hashes the blocks as every writer encodes them, so a
	// replayed leaf binds the same bytes the primary's did.
	enc, err := json.Marshal(m.Blocks)
	sum := sha256.Sum256(enc)
	r.commitment = hex.EncodeToString(sum[:])
	return r, err
}

// applyRecordLocked is the dataset's one state transition (see the top
// of this file): the primary commit, WAL replay and follower apply all
// reach the log state through it. It reports whether the record changed
// state — a measurement that landed, a budget it raised, a ledger it
// extended — and the audit receipt of the leaf the record appended.
// Caller holds d.mu (or owns the unpublished dataset).
func (d *Dataset) applyRecordLocked(r record) (changed bool, rcpt AuditReceipt, err error) {
	switch p := r.payload.(type) {
	case *walCreate:
		// Identity records open every log and stream epoch; they assert,
		// never mutate.
		return false, rcpt, d.checkIdentity(p)
	case *walMeas:
		if p.Gen <= d.gen {
			// Already covered: a compaction crash window or a re-shipped
			// frame. Its budget is absolute, so raising to it is harmless.
			return false, rcpt, d.kern.RestoreConsumed(p.Consumed)
		}
		rows := 0
		for _, b := range r.blocks {
			rows += len(b.y)
		}
		if p.Full {
			// A collapsed full-history record (a bootstrap stream) replaces
			// the log: it is content-equal on the prefix a correct follower
			// holds, where appending would duplicate every block a resyncing
			// follower had applied before its stream reset.
			d.blocks, d.rows = r.blocks, rows
			d.resetDerivedLocked()
		} else {
			d.blocks = append(d.blocks, r.blocks...)
			d.rows += rows
		}
		d.gen = p.Gen
		d.stale = true
		d.cache.invalidate(d.gen)
		rcpt = d.auditMeasLeafLocked(p, r.commitment)
		// Raising can fail (a consumed above this dataset's eps_total) after
		// the blocks landed. The record is still sunk: dropping it would
		// fork this log from the one it was applied from.
		err = d.kern.RestoreConsumed(p.Consumed)
		d.sinkLocked(r)
		return true, rcpt, err
	case *walBudget:
		changed = p.Consumed > d.kern.Consumed()
		if err := d.kern.RestoreConsumed(p.Consumed); err != nil {
			return false, rcpt, err
		}
		rcpt = d.auditSpendLeafLocked(p)
		d.sinkLocked(r)
		return changed, rcpt, nil
	case *walAuditCkpt:
		// The recorded ledger head is the tamper-evidence anchor: the local
		// tree must have held exactly this root at this size.
		if err := d.checkAuditCheckpointLocked(*p); err != nil {
			return false, rcpt, err
		}
		d.sinkLocked(r)
		return false, rcpt, nil
	case *walAuditState:
		if changed, err = d.installAuditStateLocked(*p); err != nil {
			return false, rcpt, err
		}
		d.sinkLocked(r)
		return changed, rcpt, nil
	}
	return false, rcpt, fmt.Errorf("record type %d has no transition", r.typ)
}

// sinkLocked publishes a record applyRecordLocked applied: the frame
// goes on the replication stream (always — replicas tail memory state,
// not the disk) and, while the dataset persists and has not degraded,
// into the local WAL. A state record (measurement or budget) counts
// toward Config.CheckpointEvery and compacts the log when due, and a
// measurement record first writes the panel sidecar; the audit records
// are pins, not state, and do neither. A replayed record has no frame:
// it is already in the log, and loadStateWAL counts it. An append
// failure degrades the dataset to read-only. Caller holds d.mu.
func (d *Dataset) sinkLocked(r record) {
	if r.frame == nil {
		return
	}
	d.appendReplFrameLocked(r.frame)
	if d.wlog == nil || d.readOnly {
		return
	}
	//lint:ignore lockscope the commit-section append is the design: disk order must equal apply order (generation order on the primary, stream order on a follower), and the hold is one write and one fsync
	if err := d.wlog.AppendFramed(r.frame); err != nil {
		d.degradeLocked(err)
		return
	}
	if r.typ != wal.TypeMeasurementBlock && r.typ != wal.TypeBudgetRestore {
		return
	}
	d.walRecs++
	if r.typ == wal.TypeMeasurementBlock {
		d.persistPanelLocked()
	}
	d.maybeCompactLocked()
}

// loadStateWAL restores the dataset by a log replay through
// applyRecordLocked, then leaves the log open for appends. Called once
// at create time, before the dataset is published. Torn log tails are
// recovery (the clean prefix loads); a compacted head cut short or a
// CRC-valid record that fails validation fails the create — silently
// dropping either could re-grant budget. So does a state file older
// versions kept beside the log: the log alone would load without the
// budget that file records as spent.
func (d *Dataset) loadStateWAL() error {
	legacy := legacySnapshotPath(d.cfg.StateDir, d.name)
	if _, err := d.fs.ReadFile(legacy); !errors.Is(err, os.ErrNotExist) {
		if err == nil {
			err = errors.New("state file of an older version; convert it into the log with that version first")
		}
		return fmt.Errorf("%w: %s: %v", ErrSnapshot, legacy, err)
	}
	create, err := json.Marshal(&walCreate{Name: d.name, Domain: d.n, EpsTotal: d.kern.EpsTotal()})
	if err != nil {
		return fmt.Errorf("%w: wal for %q: %v", ErrSnapshot, d.name, err)
	}
	// A compacted head cut short is refused before wal.Open truncates it
	// as a torn tail; a follower takes it as one, since it resyncs
	// whatever its log lacks from the primary.
	var head int
	opts := wal.Options{FS: d.fs}
	opts.Check = func(data []byte, recs []wal.Record) error {
		var whole bool
		head, whole = compactedHead(data, recs, len(wal.AppendFrame(nil, wal.TypeDatasetCreate, create)))
		if !whole && !d.follower {
			return errors.New("compacted head does not reach its audit checkpoint")
		}
		return nil
	}
	l, recs, err := wal.Open(d.walPath, opts)
	if err != nil {
		return fmt.Errorf("%w: wal for %q: %v", ErrSnapshot, d.name, err)
	}
	for i, rec := range recs {
		r, err := decodeRecord(rec, d.n)
		if err == nil {
			_, _, err = d.applyRecordLocked(r)
		}
		if err != nil {
			l.Close()
			return fmt.Errorf("%w: wal for %q: record %d: %v", ErrSnapshot, d.name, i, err)
		}
		// The state records after the compacted head count toward
		// Config.CheckpointEvery; the head is the checkpoint.
		if i >= head && (rec.Type == wal.TypeMeasurementBlock || rec.Type == wal.TypeBudgetRestore) {
			d.walRecs++
		}
	}
	if len(recs) == 0 {
		// Fresh (or fully torn) log: pin the dataset identity first.
		if err := l.Append(wal.TypeDatasetCreate, create); err != nil {
			l.Close()
			return fmt.Errorf("%w: wal for %q: %v", ErrSnapshot, d.name, err)
		}
	}
	d.wlog = l
	d.loadPanelSidecar()
	d.stale = true
	return nil
}

// compactedHead returns how many records the head of a compacted log
// image spans — create, audit state, through the closing audit
// checkpoint — or 0 for a log without one (no other log's second record
// is an audit state); recs is the image's clean prefix. whole is false
// for a head cut short: the second frame is an audit state but no audit
// checkpoint follows in the clean prefix. The second frame is found
// past the createLen-byte create frame the dataset writes, so damage to
// the magic or the first frame does not hide the head, and it is an
// audit state if its type byte says so (whatever else is damaged) or
// its checksum verifies as one (the type byte is the damage).
func compactedHead(data []byte, recs []wal.Record, createLen int) (n int, whole bool) {
	at := len(wal.Magic) + createLen
	if len(recs) > 0 && recs[0].Type != wal.TypeDatasetCreate || len(data) < at+wal.FrameHeader ||
		wal.Type(data[at+wal.FrameHeader-1]) != wal.TypeAuditState && !wal.FrameVerifiesAs(data[at:], wal.TypeAuditState) {
		return 0, true
	}
	for i := 2; i < len(recs); i++ {
		if recs[i].Type == wal.TypeAuditCheckpoint {
			return i + 1, true
		}
	}
	return 0, false
}

// loadPanelSidecar restores the advisory warm-start panel. Purely
// best-effort: anything invalid is logged and ignored — the panel is a
// solve seed, never authoritative state.
func (d *Dataset) loadPanelSidecar() {
	data, err := d.fs.ReadFile(d.panelPath)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			log.Printf("serve: dataset %q: panel sidecar read (ignored): %v", d.name, err)
		}
		return
	}
	var pc panelSidecar
	if err = decodeStrict(bytes.NewReader(data), &pc); err == nil {
		err = checkPanel(pc.Domain, pc.K, pc.Panel)
	}
	if err == nil && pc.Domain != d.n {
		err = fmt.Errorf("domain %d", pc.Domain)
	}
	if err != nil {
		log.Printf("serve: dataset %q: panel sidecar (ignored): %v", d.name, err)
		return
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
	// err is an encode failure (a non-finite value): the commit cannot
	// be framed, so commitBlocksLocked records only its spend.
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

// appendBlocksJSON appends the JSON array of the blocks' codec forms:
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
// of pc.blocks at the next generation and frames it once, for the
// replication stream (which carries it even without persistence) and
// the WAL alike. The envelope is marshaled with no blocks and pc's
// encoding replaces its "blocks":null — no earlier field is a string,
// so the first match is that member. Caller holds d.mu.
func (d *Dataset) frameCommitLocked(pc pendingCommit, meta commitMeta) (*walMeas, []byte, error) {
	rec := &walMeas{
		Gen:      d.gen + 1,
		Consumed: d.kern.Consumed(),
		Op:       meta.Op,
		Session:  meta.Session,
		Charges:  meta.Charges,
		Eps:      meta.Eps,
	}
	env, err := json.Marshal(rec)
	if err = errors.Join(pc.err, err); err != nil {
		return nil, nil, fmt.Errorf("serve: encode wal record for %q: %w", d.name, err)
	}
	null := bytes.Index(env, []byte(`"blocks":null`)) + len(`"blocks":`)
	start := recordHeadroom - null - wal.FrameHeader
	copy(pc.buf[start+wal.FrameHeader:], env[:null])
	buf := append(pc.buf, env[null+len("null"):]...)
	return rec, wal.SealFrame(buf[start:], wal.TypeMeasurementBlock), nil
}

// commitSpendLocked records a budget charge without measurements — a
// failed plan's partial spend, or a commit that could not be framed —
// as one budget-restore record carrying the absolute consumed value,
// applied like any record (a ledger leaf: a partial charge is exactly
// the kind of budget mutation an auditor must see) and followed by the
// audit checkpoint. Caller holds d.mu.
func (d *Dataset) commitSpendLocked(meta commitMeta) {
	rec := &walBudget{
		Consumed: d.kern.Consumed(),
		Op:       meta.Op,
		Session:  meta.Session,
		Charges:  meta.Charges,
		Eps:      meta.Eps,
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		// The kernel and its sessions hold only finite budgets; unreachable.
		d.degradeLocked(fmt.Errorf("serve: encode wal record for %q: %w", d.name, err))
		return
	}
	frame := wal.AppendFrame(nil, wal.TypeBudgetRestore, payload)
	d.applyRecordLocked(record{typ: wal.TypeBudgetRestore, payload: rec, frame: frame})
	d.auditCheckpointLocked()
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

// maybeCompactLocked compacts the log once Config.CheckpointEvery state
// records have accumulated: the panel goes to its sidecar, and the log
// is atomically replaced by the bootstrap records. A compaction failure
// is not a durability failure — the old log still holds everything — so
// the dataset keeps serving on the old log when it can reopen it, and
// degrades only when it cannot. Caller holds d.mu.
func (d *Dataset) maybeCompactLocked() {
	if d.cfg.CheckpointEvery <= 0 || d.walRecs < d.cfg.CheckpointEvery {
		return
	}
	d.persistPanelLocked()
	recs, err := d.bootstrapRecordsLocked()
	if err != nil {
		//lint:ignore lockscope error path: compaction giving up must be visible; the log still holds everything
		log.Printf("serve: dataset %q: compaction skipped, keeping log: %v", d.name, err)
		return
	}
	// A failed final sync loses nothing the new log does not hold.
	//lint:ignore lockscope compaction must swap the log against a quiesced commit path, which only the dataset mutex guarantees; it runs every CheckpointEvery commits, not per request
	d.wlog.Close()
	//lint:ignore lockscope compaction must swap the log against a quiesced commit path, which only the dataset mutex guarantees; it runs every CheckpointEvery commits, not per request
	nl, err := wal.Replace(d.walPath, recs, wal.Options{FS: d.fs})
	// A failure retries after another CheckpointEvery records, not on
	// every commit (a state over wal.MaxPayload never compacts).
	d.walRecs = 0
	if err != nil {
		//lint:ignore lockscope error path: compaction failure is logged once, then the old log is reopened
		log.Printf("serve: dataset %q: compaction failed, keeping log: %v", d.name, err)
		//lint:ignore lockscope reopening the surviving log is the compaction-failure recovery; it must finish before the commit path resumes
		ol, _, oerr := wal.Open(d.walPath, wal.Options{FS: d.fs})
		if oerr != nil {
			d.degradeLocked(fmt.Errorf("compaction failed (%v) and log reopen failed: %w", err, oerr))
			return
		}
		d.wlog = ol
		return
	}
	d.wlog = nl
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
