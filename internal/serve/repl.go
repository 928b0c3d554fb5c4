package serve

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/wal"
)

// This file is the replication layer of the serve tier (ROADMAP open
// item 1, the scale-out half): every dataset exposes its measurement
// WAL as a logical frame stream that read replicas tail and apply.
//
// # The replication stream
//
// The stream is the dataset's commit history in the WAL frame encoding
// (wal.AppendFrame — length|type|payload|CRC32C, no file magic): a
// dataset-create frame pinning the identity, then one
// measurement-block frame per commit, a budget-restore frame per
// failed-plan spend, and an audit-checkpoint frame (the post-commit
// ledger head — audit.go) after each. Offsets are logical byte
// positions in this stream, independent of the on-disk log —
// checkpoint compaction can rewrite the physical file without moving
// a replica's position.
//
// The stream is retained in memory as a list of immutable frames — the
// same byte slices the WAL file was written from — so publishing a
// commit is an O(1) append that copies nothing. It is NOT retained
// unboundedly: only the most recent Config.ReplRetain frames are kept
// (appendReplFrameLocked drops the oldest as new ones arrive), so a
// long-lived primary's memory stays bounded by the retention window
// rather than growing with the commit history. repl.base is the logical
// offset of the oldest retained byte; a follower tailing below it
// gets ErrWALRange (416) and resynchronizes from offset zero, where
// the primary serves a regenerated bootstrap stream (one create
// frame, the full audit-ledger state, one collapsed full-history
// measurement frame, and the closing audit checkpoint) whose `next`
// offset is the live stream end — exactly the stream a process
// restart seeds (with a fresh epoch, so followers resynchronize from
// zero then too). Replay idempotence (generation-guarded blocks with
// full-replace semantics for collapsed frames, absolute budget
// values, audit watermarks) makes the bootstrap apply identically to
// the original commit-by-commit history.
//
// # Followers
//
// A follower dataset (Server.CreateFollower) is a read replica: it
// holds no private data (the kernel protects a zero vector — queries
// are pure post-processing over the replicated measurement log and
// never touch it), spends no budget (writes are refused with
// ErrNotPrimary before any kernel session is created; the primary's
// absolute consumed value is restored through RestoreConsumed so
// summaries agree), and applies shipped frames through the one state
// transition the primary commit and the crash-recovery loader use
// (applyRecordLocked, walstate.go). The transition sinks every applied
// frame onto the follower's own replication stream and, when
// persistence is enabled, its local WAL, so a restarted replica
// recovers its log locally and the tail resumes from wherever the
// primary's stream stands — re-applying from offset zero is safe by the
// transition's idempotence.
//
// A replica at generation G answers bit-identically to the primary at
// generation G when the dataset uses the "normal" solver; an iterative
// solver's replica does too when it refreshed at the generations the
// primary did (the warm start is the previous refresh's panel), and
// agrees to solver tolerance otherwise. Bootstrap noise is drawn per
// block in log order from the seed both sides share, so standard errors
// follow the answers in either case.

// ErrNotPrimary: a write (Measure/MeasurePlan) reached a read replica.
// The HTTP layer maps it to 421 Misdirected Request with the primary's
// address, before any kernel session is created — budget spend on a
// follower is impossible by construction.
var ErrNotPrimary = errors.New("serve: dataset is a read replica")

// NotPrimaryError carries the primary's address alongside ErrNotPrimary
// so the HTTP layer (and the router) can tell the client where writes go.
type NotPrimaryError struct {
	Dataset string
	Primary string
}

func (e *NotPrimaryError) Error() string {
	return fmt.Sprintf("serve: dataset %q is a read replica; writes go to primary %s", e.Dataset, e.Primary)
}

func (e *NotPrimaryError) Unwrap() error { return ErrNotPrimary }

// ErrWALRange: a WAL tail request named an offset outside the stream
// (HTTP 416). Followers treat it as an epoch change: reset to zero.
var ErrWALRange = errors.New("serve: wal stream offset out of range")

// replState is a dataset's in-memory replication stream.
type replState struct {
	// epoch identifies one process lifetime of the stream: offsets are
	// only comparable within an epoch, and a follower that observes a new
	// epoch restarts its tail from offset zero.
	epoch uint64
	// base and end bound the retained logical bytes [base, end). base is
	// the trim floor: offsets below it (except 0, which serves a
	// regenerated bootstrap) have been trimmed away and fail with
	// ErrWALRange.
	base, end int64
	// frames are the retained records, oldest first: each one whole
	// frame (wal.AppendFrame encoding, no magic) that is never written
	// to again once appended, so readers and the WAL share it.
	frames [][]byte
}

var replEpochCounter atomic.Uint64

// newReplEpoch returns a process-unique, restart-distinguishing epoch.
// Epochs are drawn from crypto/rand: the previous clock-based scheme
// (UnixNano + counter) could repeat an epoch across a restart on a
// platform with coarse clocks or after a clock step backwards, letting
// a follower keep a stale offset into a different stream. The
// time+counter form survives only as the fallback if the random read
// fails, which crypto/rand does not do on supported platforms.
func newReplEpoch() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
	return uint64(time.Now().UnixNano()) + replEpochCounter.Add(1)
}

// appendReplLocked frames one record, appends it to the replication
// stream and returns the frame for the caller's WAL append. Caller
// holds d.mu.
func (d *Dataset) appendReplLocked(t wal.Type, payload []byte) []byte {
	frame := wal.AppendFrame(nil, t, payload)
	d.appendReplFrameLocked(frame)
	return frame
}

// appendReplFrameLocked appends one finished frame to the replication
// stream and drops the oldest frames beyond Config.ReplRetain,
// advancing the trim floor. The stream keeps the slice, which must not
// be written to again. Caller holds d.mu.
func (d *Dataset) appendReplFrameLocked(frame []byte) {
	r := &d.repl
	r.frames = append(r.frames, frame)
	r.end += int64(len(frame))
	for keep := d.cfg.ReplRetain; keep > 0 && len(r.frames) > keep; r.frames = r.frames[1:] {
		r.base += int64(len(r.frames[0]))
		r.frames[0] = nil // the slot outlives the re-slice; release the frame
	}
}

// bootstrapRecordsLocked builds the records that reproduce the
// dataset's full current state on a follower starting from nothing:
// the identity frame; then, once any budget was spent, the full
// audit-ledger state (which also raises the follower's leaf-derivation
// watermarks so the collapsed frame that follows stays leaf-neutral),
// one collapsed full-history measurement frame (Full: apply replaces
// rather than appends, so a resyncing follower cannot duplicate
// blocks) or a budget-restore frame when budget was spent without
// measurements surviving, and the closing audit checkpoint the
// follower must reproduce. Shared by the restart seed (seedReplStream),
// the trimmed-stream bootstrap (WALTail at offset zero) and compaction
// (maybeCompactLocked), which makes it the head of a fresh log. Caller
// holds d.mu (or owns the unpublished dataset).
func (d *Dataset) bootstrapRecordsLocked() ([]wal.Record, error) {
	fail := func(err error) ([]wal.Record, error) {
		return nil, fmt.Errorf("serve: bootstrap stream for %q: %w", d.name, err)
	}
	payload, err := json.Marshal(&walCreate{Name: d.name, Domain: d.n, EpsTotal: d.kern.EpsTotal()})
	if err != nil {
		return fail(err)
	}
	recs := []wal.Record{{Type: wal.TypeDatasetCreate, Payload: payload}}
	consumed := d.kern.Consumed()
	if d.gen == 0 && consumed == 0 && d.audit.Size() == 0 {
		return recs, nil
	}
	payload, err = json.Marshal(&walAuditState{
		Size:     d.audit.Size(),
		Gen:      d.gen,
		Consumed: consumed,
		Leaves:   audit.FormatHashes(d.audit.LeafHashes()),
	})
	if err != nil {
		return fail(err)
	}
	recs = append(recs, wal.Record{Type: wal.TypeAuditState, Payload: payload})
	if d.gen > 0 {
		m := walMeas{Gen: d.gen, Consumed: consumed, Blocks: make([]wireBlock, len(d.blocks)), Full: true}
		for i, b := range d.blocks {
			m.Blocks[i] = encodeBlock(b)
		}
		if payload, err = json.Marshal(&m); err != nil {
			return fail(err)
		}
		recs = append(recs, wal.Record{Type: wal.TypeMeasurementBlock, Payload: payload})
	} else if consumed > 0 {
		if payload, err = json.Marshal(&walBudget{Consumed: consumed}); err != nil {
			return fail(err)
		}
		recs = append(recs, wal.Record{Type: wal.TypeBudgetRestore, Payload: payload})
	}
	payload, err = json.Marshal(&walAuditCkpt{Size: d.audit.Size(), Root: audit.FormatHash(d.audit.Root())})
	if err != nil {
		return fail(err)
	}
	recs = append(recs, wal.Record{Type: wal.TypeAuditCheckpoint, Payload: payload})
	return recs, nil
}

// seedReplStream initializes the replication stream from the dataset's
// (possibly restored) state — the bootstrap records, from offset zero.
// Called once from addDataset before the dataset is published, so no
// lock is needed; errors are impossible for the types marshaled here
// short of running out of memory, and are treated as fatal to the
// create.
func (d *Dataset) seedReplStream() error {
	d.repl.epoch = newReplEpoch()
	recs, err := d.bootstrapRecordsLocked()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		d.appendReplLocked(rec.Type, rec.Payload)
	}
	return nil
}

// WALTail returns a copy of the replication stream from logical byte
// offset from to its current end, with the end offset, the stream
// epoch and the measurement-log generation the returned bytes reach.
// An empty data slice with next == from means the follower is caught
// up. Offsets below the trim floor or beyond the end fail with
// ErrWALRange (the follower resynchronizes from zero — its offset
// belongs to an older epoch or to trimmed history) — except offset
// zero itself, which is always servable: on a trimmed stream it
// returns a regenerated bootstrap (see bootstrapRecordsLocked) whose
// next offset jumps to the live end.
func (d *Dataset) WALTail(from int64) (data []byte, next int64, epoch, gen uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := &d.repl
	if from == 0 && r.base > 0 {
		recs, berr := d.bootstrapRecordsLocked()
		if berr != nil {
			return nil, r.end, r.epoch, d.gen, berr
		}
		var buf []byte
		for _, rec := range recs {
			buf = wal.AppendFrame(buf, rec.Type, rec.Payload)
		}
		return buf, r.end, r.epoch, d.gen, nil
	}
	if from < r.base || from > r.end {
		return nil, r.end, r.epoch, d.gen,
			fmt.Errorf("%w: offset %d outside [%d,%d]", ErrWALRange, from, r.base, r.end)
	}
	// Walk back from the end to the frame holding from (tails are short),
	// then copy forward: the caller gets one contiguous slice it owns.
	i, off := len(r.frames), r.end
	for off > from {
		i--
		off -= int64(len(r.frames[i]))
	}
	data = make([]byte, 0, r.end-from)
	for ; i < len(r.frames); i++ {
		data = append(data, r.frames[i][max(from-off, 0):]...)
		off += int64(len(r.frames[i]))
	}
	return data, r.end, r.epoch, d.gen, nil
}

// IsFollower reports the dataset's role.
func (d *Dataset) IsFollower() bool { return d.follower }

// CreateFollower registers a read replica of a dataset whose primary
// lives elsewhere: domain, budget, seed, solver and damping are the
// primary's public dataset metadata (served by /v1/status), primary is
// its address for write redirection. The replica's kernel protects a
// zero vector — no private data ever reaches a follower; the
// measurement log arrives through ApplyWALStream and queries are
// post-processing over it. With persistence enabled the follower
// restores its locally shipped log exactly like a primary would.
func (s *Server) CreateFollower(name string, domain int, epsTotal float64, seed uint64, solverName string, damping float64, primary string) (*Dataset, error) {
	if domain <= 0 || !(epsTotal > 0) || math.IsInf(epsTotal, 0) {
		return nil, fmt.Errorf("serve: follower needs positive domain and finite positive budget")
	}
	if primary == "" {
		return nil, fmt.Errorf("serve: follower needs the primary's address")
	}
	return s.addDataset(name, make([]float64, domain), seed, epsTotal, solverName, damping, primary)
}

// ApplyWALStream verifies and applies shipped replication frames to a
// follower dataset, in order: every frame re-checked by CRC
// (wal.ScanStream) and decoded by decodeRecord before the lock, then
// applied by the one state transition, applyRecordLocked, which sinks
// it onto the follower's own stream and local WAL. Measurement records
// are generation-guarded and budget values absolute, so applying the
// same stream twice is a no-op. Only the gate is the follower's own: a
// shipped audit record the rebuilt ledger disagrees with latches the
// sticky replication error. It returns the number of records that
// changed state. Partial streams fail after applying the clean prefix;
// the follower simply re-tails.
func (d *Dataset) ApplyWALStream(data []byte) (applied int, err error) {
	if !d.follower {
		return 0, fmt.Errorf("serve: dataset %q is not a follower", d.name)
	}
	recs, clean := wal.ScanStream(data)
	for i, rec := range recs {
		changed, err := d.applyShipped(rec)
		if err != nil {
			return applied, fmt.Errorf("serve: replica %q: shipped record %d: %w", d.name, i, err)
		}
		if changed {
			applied++
		}
	}
	if clean != len(data) {
		return applied, fmt.Errorf("serve: replica %q: torn frame at stream byte %d of %d", d.name, clean, len(data))
	}
	return applied, nil
}

// applyShipped is follower apply's gate around applyRecordLocked for
// one shipped record, reporting whether it changed state.
func (d *Dataset) applyShipped(rec wal.Record) (bool, error) {
	r, err := decodeRecord(rec, d.n)
	if err != nil {
		return false, err
	}
	r.frame = wal.AppendFrame(nil, rec.Type, rec.Payload)
	d.mu.Lock()
	defer d.mu.Unlock()
	changed, _, err := d.applyRecordLocked(r)
	if err != nil && (r.typ == wal.TypeAuditCheckpoint || r.typ == wal.TypeAuditState) {
		// The primary's shipped ledger is the in-band integrity check: a
		// replica whose rebuilt tree disagrees has a history that is not
		// the primary's, and serving proofs from it would be lying to
		// auditors.
		d.setReplicationErrorLocked(err)
	}
	return changed, err
}
