package serve

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/audit"
	"repro/internal/wal"
)

// This file hooks the tamper-evident budget ledger (internal/audit)
// into the serve tier. Every committed budget mutation — a strategy
// measurement, a plan's combined charge, a failed plan's partial
// spend — appends exactly one Merkle leaf whose payload carries
// (dataset, generation, operator, session, kernel charge count,
// epsilon, absolute consumed, SHA-256 commitment of the canonical
// measurement-block encoding). The ledger is log state like any other:
// the leaf is derived inside the one state transition,
// applyRecordLocked (walstate.go), so the primary commit, WAL replay
// and follower apply grow it by the same code. Three record rules keep
// it equal everywhere the log is equal:
//
//   - The WATERMARK RULE: a measurement record grows the ledger only
//     when its generation is beyond auditGen, a budget record only
//     when its absolute consumed is beyond auditConsumed. So the
//     collapsed bootstrap frames of a re-seeded stream are leaf-neutral
//     (their generation is already covered by the audit-state frame
//     that precedes them), and so are the records a compacted head
//     covers.
//
//   - AUDIT CHECKPOINTS: after every commit the primary sinks a
//     wal.TypeAuditCheckpoint record (tree size + root) to the
//     replication stream and the WAL. Applying one checks that the
//     local tree held exactly that root: replay fails the create on a
//     mismatch, and a follower latches a replication-integrity error,
//     surfaced in /v1/status.
//
//   - AUDIT STATE: bootstrap streams (process restart, trimmed
//     stream) open with a wal.TypeAuditState record carrying the full
//     leaf-hash list, because the collapsed measurement frame that
//     follows no longer implies the per-commit leaves.
//
// The HTTP surface (checkpoint / proof / consistency endpoints below)
// serves RFC 6962-style proofs; cmd/ektelo-audit is the external
// verifier that consumes them.

// walAuditCkpt is the wal.TypeAuditCheckpoint payload: the ledger
// head (leaf count, hex Merkle root) after a commit.
type walAuditCkpt struct {
	Size uint64 `json:"size"`
	Root string `json:"root"`
}

// walAuditState is the wal.TypeAuditState payload: the full ledger
// (hex leaf hashes, oldest first) plus the watermarks it reaches.
type walAuditState struct {
	Size     uint64   `json:"size"`
	Gen      uint64   `json:"gen"`
	Consumed float64  `json:"consumed"`
	Leaves   []string `json:"leaves"`
}

// AuditReceipt identifies the ledger leaf a commit appended, returned
// to the writing client so it can later prove inclusion.
type AuditReceipt struct {
	// Index is the leaf index in the audit ledger.
	Index uint64 `json:"audit_index"`
	// Leaf is the hex leaf hash (RFC 6962 leaf hashing of the entry).
	Leaf string `json:"audit_leaf"`
}

// commitMeta is the operator attribution a commit carries into its
// WAL record and audit leaf.
type commitMeta struct {
	Op      string
	Session int
	Charges int
	Eps     float64
}

// auditMeasLeafLocked appends the ledger leaf for a measurement record
// under the watermark rule. commitment is the hex SHA-256 of the
// record's canonical measurement-block encoding (the block codec's
// "blocks" array) — taken by prepareCommit on the primary and by
// decodeRecord elsewhere — so the leaf binds the charge to the exact
// bytes every replica replays. Caller holds d.mu.
func (d *Dataset) auditMeasLeafLocked(m *walMeas, commitment string) AuditReceipt {
	if m.Gen <= d.auditGen {
		return AuditReceipt{}
	}
	op := m.Op
	if op == "" {
		op = "measure"
	}
	leaf := audit.Entry{
		Dataset:    d.name,
		Gen:        m.Gen,
		Op:         op,
		Session:    m.Session,
		Charges:    m.Charges,
		Eps:        m.Eps,
		Consumed:   m.Consumed,
		Commitment: commitment,
	}.LeafHash()
	idx := d.audit.Append(leaf)
	d.auditGen = m.Gen
	if m.Consumed > d.auditConsumed {
		d.auditConsumed = m.Consumed
	}
	return AuditReceipt{Index: idx, Leaf: audit.FormatHash(leaf)}
}

// auditSpendLeafLocked appends the ledger leaf for a budget-restore
// record under the watermark rule (a spend whose absolute consumed is
// already covered — e.g. a concurrent commit landed a larger value
// first — is leaf-neutral, identically at every replay site). Caller
// holds d.mu.
func (d *Dataset) auditSpendLeafLocked(b *walBudget) AuditReceipt {
	if b.Consumed <= d.auditConsumed {
		return AuditReceipt{}
	}
	op := b.Op
	if op == "" {
		op = "spend"
	}
	e := audit.Entry{
		Dataset:  d.name,
		Gen:      d.gen,
		Op:       op,
		Session:  b.Session,
		Charges:  b.Charges,
		Eps:      b.Eps,
		Consumed: b.Consumed,
	}
	leaf := e.LeafHash()
	idx := d.audit.Append(leaf)
	d.auditConsumed = b.Consumed
	return AuditReceipt{Index: idx, Leaf: audit.FormatHash(leaf)}
}

// auditCheckpointLocked sinks the post-commit ledger head as an audit
// checkpoint record. The primary does not apply its own head — the check
// would hash the whole tree again to compare it with itself. Caller
// holds d.mu.
func (d *Dataset) auditCheckpointLocked() {
	payload, err := json.Marshal(&walAuditCkpt{Size: d.audit.Size(), Root: audit.FormatHash(d.audit.Root())})
	if err != nil {
		// walAuditCkpt has no unmarshalable fields; unreachable.
		return
	}
	d.sinkLocked(record{typ: wal.TypeAuditCheckpoint, frame: wal.AppendFrame(nil, wal.TypeAuditCheckpoint, payload)})
}

// installAuditStateLocked installs a shipped or replayed full-ledger
// state. The follower's existing leaves must be a prefix of the
// incoming list (append-only history); a stale state covering fewer
// leaves than already present is asserted against the local tree and
// otherwise ignored. Caller holds d.mu.
func (d *Dataset) installAuditStateLocked(st walAuditState) (changed bool, err error) {
	if !validConsumed(st.Consumed) {
		return false, fmt.Errorf("audit state consumed %g", st.Consumed)
	}
	leaves, err := audit.ParseHashes(st.Leaves)
	if err != nil {
		return false, fmt.Errorf("audit state: %w", err)
	}
	if uint64(len(leaves)) != st.Size {
		return false, fmt.Errorf("audit state carries %d leaves for size %d", len(leaves), st.Size)
	}
	nt := audit.NewTreeFromLeaves(leaves)
	cur := d.audit.Size()
	if st.Size < cur {
		got, rerr := d.audit.RootAt(st.Size)
		if rerr != nil || got != nt.Root() {
			return false, fmt.Errorf("stale audit state root %s disagrees with local prefix at %d", audit.FormatHash(nt.Root()), st.Size)
		}
		return false, nil
	}
	if cur > 0 {
		pref, rerr := nt.RootAt(cur)
		if rerr != nil || pref != d.audit.Root() {
			return false, fmt.Errorf("audit state at size %d does not extend local ledger of %d leaves", st.Size, cur)
		}
	}
	changed = st.Size > cur || st.Gen > d.auditGen || st.Consumed > d.auditConsumed
	d.audit = nt
	if st.Gen > d.auditGen {
		d.auditGen = st.Gen
	}
	if st.Consumed > d.auditConsumed {
		d.auditConsumed = st.Consumed
	}
	return changed, nil
}

// checkAuditCheckpointLocked validates a persisted or shipped audit
// checkpoint against the local ledger: the tree must have held
// exactly the recorded root at the recorded size. Caller holds d.mu.
func (d *Dataset) checkAuditCheckpointLocked(c walAuditCkpt) error {
	root, err := audit.ParseHash(c.Root)
	if err != nil {
		return fmt.Errorf("audit checkpoint: %w", err)
	}
	got, err := d.audit.RootAt(c.Size)
	if err != nil {
		return fmt.Errorf("audit checkpoint at %d beyond ledger of %d leaves", c.Size, d.audit.Size())
	}
	if got != root {
		return fmt.Errorf("audit ledger root %s at size %d does not reproduce checkpoint %s",
			audit.FormatHash(got), c.Size, c.Root)
	}
	return nil
}

// AuditState reports the ledger head (leaf count, root) and the
// generation it was read at, atomically under the dataset lock.
func (d *Dataset) AuditState() (size uint64, root [audit.HashSize]byte, gen uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.audit.Size(), d.audit.Root(), d.gen
}

// setReplicationErrorLocked latches a replication-integrity error for
// /v1/status. Sticky: a diverged ledger cannot silently heal — the
// operator rebuilds the follower. Caller holds d.mu.
func (d *Dataset) setReplicationErrorLocked(err error) {
	if d.replErr == nil {
		d.replErr = err
	}
}

// MarkReplicationDivergence lets the cluster tier latch an
// out-of-band root comparison failure (the follower manager checking
// its rebuilt root against the primary's /v1/status at equal
// generation).
func (d *Dataset) MarkReplicationDivergence(primaryRoot string, gen uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.setReplicationErrorLocked(fmt.Errorf(
		"serve: replica %q: audit root %s at generation %d diverges from primary root %s",
		d.name, audit.FormatHash(d.audit.Root()), gen, primaryRoot))
}

// auditProof is the /audit/proof response: an inclusion proof for one
// leaf against the tree head at the requested size.
func (d *Dataset) auditProof(index, size uint64) (audit.InclusionResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size == 0 {
		size = d.audit.Size()
	}
	leaf, err := d.audit.Leaf(index)
	if err != nil {
		return audit.InclusionResponse{}, err
	}
	proof, err := d.audit.InclusionProof(index, size)
	if err != nil {
		return audit.InclusionResponse{}, err
	}
	root, err := d.audit.RootAt(size)
	if err != nil {
		return audit.InclusionResponse{}, err
	}
	return audit.InclusionResponse{
		Index: index,
		Size:  size,
		Leaf:  audit.FormatHash(leaf),
		Proof: audit.FormatHashes(proof),
		Root:  audit.FormatHash(root),
	}, nil
}

// auditConsistency is the /audit/consistency response: a consistency
// proof between two historical tree sizes.
func (d *Dataset) auditConsistency(from, to uint64) (audit.ConsistencyResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if to == 0 {
		to = d.audit.Size()
	}
	proof, err := d.audit.ConsistencyProof(from, to)
	if err != nil {
		return audit.ConsistencyResponse{}, err
	}
	fromRoot, err := d.audit.RootAt(from)
	if err != nil {
		return audit.ConsistencyResponse{}, err
	}
	toRoot, err := d.audit.RootAt(to)
	if err != nil {
		return audit.ConsistencyResponse{}, err
	}
	return audit.ConsistencyResponse{
		From:     from,
		To:       to,
		FromRoot: audit.FormatHash(fromRoot),
		ToRoot:   audit.FormatHash(toRoot),
		Proof:    audit.FormatHashes(proof),
	}, nil
}

// handleAuditCheckpoint serves GET /v1/datasets/{name}/audit/checkpoint:
// the signed tree head (size, root, ed25519 signature over the
// canonical checkpoint note) plus the server's public key. Signing
// happens outside the dataset lock.
func (s *Server) handleAuditCheckpoint(w http.ResponseWriter, _ *http.Request, d *Dataset) {
	size, root, gen := d.AuditState()
	sig := audit.SignCheckpoint(s.cfg.AuditKey, d.name, size, root)
	writeJSON(w, http.StatusOK, audit.Checkpoint{
		Dataset:    d.name,
		Size:       size,
		Root:       audit.FormatHash(root),
		Generation: gen,
		Signature:  hex.EncodeToString(sig),
		PublicKey:  hex.EncodeToString(s.AuditPublicKey()),
	})
}

// handleAuditProof serves GET .../audit/proof?index=N[&size=M]
// (size defaults to the current tree head).
func (s *Server) handleAuditProof(w http.ResponseWriter, r *http.Request, d *Dataset) {
	index, ok := parseUintParam(w, r, "index", true)
	if !ok {
		return
	}
	size, ok := parseUintParam(w, r, "size", false)
	if !ok {
		return
	}
	res, err := d.auditProof(index, size)
	if err != nil {
		writeErr(w, httpError{http.StatusBadRequest, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleAuditConsistency serves GET .../audit/consistency?from=N[&to=M]
// (to defaults to the current tree head).
func (s *Server) handleAuditConsistency(w http.ResponseWriter, r *http.Request, d *Dataset) {
	from, ok := parseUintParam(w, r, "from", true)
	if !ok {
		return
	}
	to, ok := parseUintParam(w, r, "to", false)
	if !ok {
		return
	}
	res, err := d.auditConsistency(from, to)
	if err != nil {
		writeErr(w, httpError{http.StatusBadRequest, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// parseUintParam reads a non-negative integer query parameter,
// writing a 400 (and returning ok=false) on absence-when-required or
// malformed input.
func parseUintParam(w http.ResponseWriter, r *http.Request, name string, required bool) (uint64, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		if required {
			writeErr(w, httpError{http.StatusBadRequest, "query parameter " + name + " required"})
			return 0, false
		}
		return 0, true
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		writeErr(w, httpError{http.StatusBadRequest, "bad " + name + ": " + err.Error()})
		return 0, false
	}
	return v, true
}
