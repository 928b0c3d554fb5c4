package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/audit"
	"repro/internal/core/inference"
	"repro/internal/mat"
	"repro/internal/wal"
)

// This file is the block codec and the legacy snapshot loader. The
// block codec is the JSON form of one measurement block — the query
// matrix over the root domain (dense row-major when ≥⅓ of the entries
// are nonzero, coordinate triplets otherwise), the noisy answers and
// the per-row noise scale — in every measurement record (walstate.go).
//
// A snapshot (<name>.snapshot.json) is the full state of a dataset as
// older versions wrote it: identity, spent budget, generation and
// blocks; version 2 adds the estimate panel, version 3 the audit
// ledger. Nothing writes one now, but one still loads, fully validated
// (never a partial log), as the bootstrap records it stands for, and the
// first compaction removes it.

// snapshotVersion is the current on-disk format version. Loaders accept
// the current version and versions 1–2 (1 lacks the optional warm-start
// panel, 2 the optional audit ledger) and reject anything else
// outright: guessing at a skewed layout risks loading a wrong
// measurement log, which is worse than refusing to start.
const snapshotVersion = 3

// maxSnapshotDomain bounds the domain (and so every matrix dimension) a
// loader will accept, so hostile or corrupted snapshots cannot force
// absurd allocations before validation finishes.
const maxSnapshotDomain = 1 << 24

// ErrSnapshot wraps every failure to load persisted state.
var ErrSnapshot = errors.New("serve: invalid snapshot")

// snapshotTriplet is one sparse matrix entry.
type snapshotTriplet struct {
	R int     `json:"r"`
	C int     `json:"c"`
	V float64 `json:"v"`
}

// snapshotBlock is one persisted measurement block.
type snapshotBlock struct {
	Rows   int               `json:"rows"`
	Cols   int               `json:"cols"`
	Dense  []float64         `json:"dense,omitempty"`  // row-major, len rows*cols
	Sparse []snapshotTriplet `json:"sparse,omitempty"` // exactly one of Dense/Sparse is set
	Y      []float64         `json:"y"`
	Scale  float64           `json:"scale"`
}

// appendJSON appends the block's JSON encoding to dst. It is the only
// block encoder — bootstrap frames (and so compacted logs) and replay-side
// commitments reach it through MarshalJSON, a commit through
// appendBlocksJSON — and writes byte for byte what encoding/json does
// for the same struct without methods (omitempty and non-finite errors
// included), so older records and commitments replay unchanged.
func (b snapshotBlock) appendJSON(dst []byte) (_ []byte, err error) {
	dst = strconv.AppendInt(append(dst, `{"rows":`...), int64(b.Rows), 10)
	dst = strconv.AppendInt(append(dst, `,"cols":`...), int64(b.Cols), 10)
	if len(b.Dense) > 0 {
		dst = appendFloatsJSON(append(dst, `,"dense":`...), b.Dense, &err)
	}
	if len(b.Sparse) > 0 {
		dst = append(dst, `,"sparse":[`...)
		for i, t := range b.Sparse {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"r":`...), int64(t.R), 10)
			dst = strconv.AppendInt(append(dst, `,"c":`...), int64(t.C), 10)
			dst = append(appendFloatJSON(append(dst, `,"v":`...), t.V, &err), '}')
		}
		dst = append(dst, ']')
	}
	dst = appendFloatsJSON(append(dst, `,"y":`...), b.Y, &err)
	dst = appendFloatJSON(append(dst, `,"scale":`...), b.Scale, &err)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler with appendJSON.
func (b snapshotBlock) MarshalJSON() ([]byte, error) { return b.appendJSON(nil) }

// appendFloatsJSON appends a float slice as encoding/json does: null
// for nil, [] for empty.
func appendFloatsJSON(dst []byte, vs []float64, err *error) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloatJSON(dst, v, err)
	}
	return append(dst, ']')
}

// appendFloatJSON appends one float64 in encoding/json's format:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21
// (e-7, not e-07). NaN and ±Inf set *err as json.Marshal would fail.
func appendFloatJSON(dst []byte, v float64, err *error) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		*err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		return dst
	}
	if i := int64(v); float64(i) == v && i != 0 && -1<<53 < i && i < 1<<53 {
		return strconv.AppendInt(dst, i, 10) // a matrix entry is mostly 1
	}
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, v, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, v, 'f', -1, 64)
}

// snapshot is the full persisted state of one dataset's measurement log.
type snapshot struct {
	Version    int             `json:"version"`
	Name       string          `json:"name"`
	Domain     int             `json:"domain"`
	EpsTotal   float64         `json:"eps_total"`
	Consumed   float64         `json:"consumed"`
	Generation uint64          `json:"generation"`
	Blocks     []snapshotBlock `json:"blocks"`
	// Panel is the domain×PanelK row-major estimate panel (version ≥ 2,
	// omitted before the first solve): a warm-start seed only.
	Panel  []float64 `json:"panel,omitempty"`
	PanelK int       `json:"panel_k,omitempty"`
	// Audit is the audit ledger (version ≥ 3, omitted while empty):
	// authoritative, since the leaves of the records the snapshot covers
	// live nowhere else.
	Audit *snapshotAudit `json:"audit,omitempty"`
}

// snapshotAudit is a snapshot's audit ledger: every leaf hash (oldest
// first) plus the root they must recompute to.
type snapshotAudit struct {
	Size   uint64   `json:"size"`
	Root   string   `json:"root"`
	Leaves []string `json:"leaves"`
}

// canonicalMatrix re-represents a measurement matrix in the snapshot
// codec's canonical form: explicit *mat.Dense when at least a third of
// the entries are nonzero, CSR otherwise; matrices already in one of
// those forms pass through untouched. Committing warm-log blocks in
// canonical form makes the in-memory log and a replayed one feed the
// solver *byte-identical* operands — the
// restart-bit-identity guarantee would otherwise break on
// accumulation-order differences between implicit (Product, Kron,
// VStack) and rebuilt representations. It also strips plan-mode lineage
// products down to flat kernels, which the panel tier's Dense/CSR fast
// paths prefer anyway. The entries come from mat.Triplets, the O(nnz)
// walk over the matrix's constructors; a type the walk cannot list
// exactly (a lazy product) falls back to implicitTriplets.
func canonicalMatrix(m mat.Matrix) mat.Matrix {
	switch m.(type) {
	case *mat.Dense, *mat.Sparse:
		return m
	}
	rows, cols := m.Dims()
	ts, ok := mat.Triplets(m, 0)
	if !ok {
		ts = implicitTriplets(m)
	}
	// The walk may list explicit zeros (a zero scale factor): they do
	// not count toward the ⅓ rule, and NewSparse does not store them.
	nnz := 0
	for _, t := range ts {
		if t.Val != 0 {
			nnz++
		}
	}
	if nnz*3 < rows*cols {
		return mat.NewSparse(rows, cols, ts)
	}
	d := mat.NewDense(rows, cols, nil)
	for _, t := range ts {
		d.Set(t.Row, t.Col, t.Val)
	}
	return d
}

// implicitTriplets is canonicalMatrix's fallback for matrix types with
// no exact structural form: it extracts the nonzero entries in
// row-major order without materializing the matrix, pulling rows
// through mat.TMatMat in fixed-width basis panels, which bounds the
// scratch memory by O((rows+cols)·canonPanel) however large the matrix
// is but costs O(rows·cols) memory traffic.
func implicitTriplets(m mat.Matrix) []mat.Triplet {
	const canonPanel = 64
	rows, cols := m.Dims()
	basis := make([]float64, rows*min(canonPanel, rows))
	panel := make([]float64, cols*min(canonPanel, rows))
	var ts []mat.Triplet
	for i0 := 0; i0 < rows; i0 += canonPanel {
		k := min(canonPanel, rows-i0)
		e := basis[:rows*k]
		for q := 0; q < k; q++ {
			e[(i0+q)*k+q] = 1
		}
		p := panel[:cols*k] // p[j*k+q] = M[i0+q][j]
		mat.TMatMat(m, p, e, k)
		// Clear only the k ones this panel set.
		for q := 0; q < k; q++ {
			e[(i0+q)*k+q] = 0
		}
		for q := 0; q < k; q++ {
			for j := 0; j < cols; j++ {
				if v := p[j*k+q]; v != 0 {
					ts = append(ts, mat.Triplet{Row: i0 + q, Col: j, Val: v})
				}
			}
		}
	}
	return ts
}

// encodeBlock converts a warm measurement block to its snapshot form.
// Committed blocks are always canonical (*mat.Dense or *mat.Sparse —
// see commitBlocksLocked), so encoding mirrors the in-memory
// representation exactly — dense stays dense, CSR stays triplets — and
// emits the existing storage without re-materializing anything; the
// decode side then rebuilds the very same representation, which is what
// keeps restarted servers bit-identical.
func encodeBlock(b measBlock) snapshotBlock {
	out := snapshotBlock{Y: b.y, Scale: b.scale}
	switch m := b.m.(type) {
	case *mat.Dense:
		out.Rows, out.Cols = m.Dims()
		out.Dense = m.Data()
	case *mat.Sparse:
		r, c := m.Dims()
		out.Rows, out.Cols = r, c
		out.Sparse = make([]snapshotTriplet, 0, m.NNZ())
		for i := 0; i < r; i++ {
			colIdx, vals := m.RowNNZ(i)
			for j, col := range colIdx {
				out.Sparse = append(out.Sparse, snapshotTriplet{R: i, C: col, V: vals[j]})
			}
		}
	default:
		// Defensive: direct callers (tests) may pass an implicit matrix.
		b.m = canonicalMatrix(b.m)
		return encodeBlock(b)
	}
	return out
}

// decodeBlock rebuilds a warm measurement block, validating every field
// against the dataset domain.
func decodeBlock(i int, b snapshotBlock, domain int) (measBlock, error) {
	fail := func(format string, args ...any) (measBlock, error) {
		return measBlock{}, fmt.Errorf("%w: block %d: %s", ErrSnapshot, i, fmt.Sprintf(format, args...))
	}
	if b.Rows <= 0 || b.Cols != domain {
		return fail("dims %dx%d against domain %d", b.Rows, b.Cols, domain)
	}
	if len(b.Y) != b.Rows {
		return fail("%d answers for %d rows", len(b.Y), b.Rows)
	}
	for _, v := range b.Y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fail("non-finite answer %g", v)
		}
	}
	if !(b.Scale >= 0) || math.IsInf(b.Scale, 0) {
		return fail("bad noise scale %g", b.Scale)
	}
	if (b.Dense == nil) == (b.Sparse == nil) {
		return fail("exactly one of dense/sparse must be present")
	}
	var m mat.Matrix
	if b.Dense != nil {
		if len(b.Dense) != b.Rows*b.Cols {
			return fail("dense data length %d != %d*%d", len(b.Dense), b.Rows, b.Cols)
		}
		for _, v := range b.Dense {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fail("non-finite matrix entry %g", v)
			}
		}
		m = mat.NewDense(b.Rows, b.Cols, append([]float64(nil), b.Dense...))
	} else {
		ts := make([]mat.Triplet, len(b.Sparse))
		for k, t := range b.Sparse {
			if t.R < 0 || t.R >= b.Rows || t.C < 0 || t.C >= b.Cols {
				return fail("sparse entry (%d,%d) outside %dx%d", t.R, t.C, b.Rows, b.Cols)
			}
			if math.IsNaN(t.V) || math.IsInf(t.V, 0) {
				return fail("non-finite matrix entry %g", t.V)
			}
			ts[k] = mat.Triplet{Row: t.R, Col: t.C, Val: t.V}
		}
		m = mat.NewSparse(b.Rows, b.Cols, ts)
	}
	return measBlock{m: m, y: append([]float64(nil), b.Y...), scale: b.Scale, digest: inference.Digest(m)}, nil
}

// loadSnapshot parses and fully validates snapshot bytes. It returns the
// decoded snapshot with every block rebuilt, or an error — never a
// panic, never a partially valid result.
func loadSnapshot(data []byte) (*snapshot, []measBlock, error) {
	var s snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if dec.More() {
		return nil, nil, fmt.Errorf("%w: trailing data after snapshot object", ErrSnapshot)
	}
	if s.Version < 1 || s.Version > snapshotVersion {
		return nil, nil, fmt.Errorf("%w: version %d, loader supports %d", ErrSnapshot, s.Version, snapshotVersion)
	}
	if s.Domain <= 0 || s.Domain > maxSnapshotDomain {
		return nil, nil, fmt.Errorf("%w: domain %d out of range", ErrSnapshot, s.Domain)
	}
	if math.IsNaN(s.EpsTotal) || math.IsInf(s.EpsTotal, 0) || s.EpsTotal <= 0 {
		return nil, nil, fmt.Errorf("%w: eps_total %g", ErrSnapshot, s.EpsTotal)
	}
	if !(s.Consumed >= 0) || s.Consumed > s.EpsTotal+1e-9 {
		return nil, nil, fmt.Errorf("%w: consumed %g outside [0, %g]", ErrSnapshot, s.Consumed, s.EpsTotal)
	}
	if s.Panel != nil {
		if err := checkPanel(s.Domain, s.PanelK, s.Panel); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
	} else if s.PanelK != 0 {
		return nil, nil, fmt.Errorf("%w: panel_k %d without a panel", ErrSnapshot, s.PanelK)
	}
	if s.Generation == 0 && len(s.Blocks) > 0 {
		return nil, nil, fmt.Errorf("%w: %d blocks at generation 0", ErrSnapshot, len(s.Blocks))
	}
	blocks := make([]measBlock, len(s.Blocks))
	for i, b := range s.Blocks {
		mb, err := decodeBlock(i, b, s.Domain)
		if err != nil {
			return nil, nil, err
		}
		blocks[i] = mb
	}
	return &s, blocks, nil
}

// checkPanel validates a persisted domain×k estimate panel.
func checkPanel(domain, k int, panel []float64) error {
	if k < 1 || domain > maxSnapshotDomain/k || len(panel) != domain*k {
		return fmt.Errorf("panel length %d against domain %d × k %d", len(panel), domain, k)
	}
	for _, v := range panel {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite panel entry %g", v)
		}
	}
	return nil
}

// snapshotPath is the snapshot file for a dataset name under a state
// directory. The name is path-escaped so client-chosen names cannot
// traverse outside the directory.
func snapshotPath(stateDir, name string) string {
	return filepath.Join(stateDir, url.PathEscape(name)+".snapshot.json")
}

// loadLegacySnapshot loads the dataset's legacy snapshot, if any: a
// version 2 panel seeds the estimate panel, and the state comes back
// as bootstrap records for replay. Runs during create.
func (d *Dataset) loadLegacySnapshot() ([]record, error) {
	data, err := d.fs.ReadFile(d.legacyPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		d.legacyPath = ""
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	s, blocks, err := loadSnapshot(data)
	if err != nil {
		return nil, err
	}
	if s.Panel != nil {
		d.panel, d.k = s.Panel, s.PanelK
	}
	return legacySnapshotRecords(s, blocks), nil
}

// legacySnapshotRecords is bootstrapRecordsLocked for a snapshot. The
// audit state's watermarks keep records the snapshot covers
// leaf-neutral (a snapshot without a ledger predates it), and the
// closing audit checkpoint checks the leaves against the snapshot's
// root.
func legacySnapshotRecords(s *snapshot, blocks []measBlock) []record {
	st := &walAuditState{Gen: s.Generation, Consumed: s.Consumed}
	ckpt := &walAuditCkpt{Root: audit.FormatHash(audit.NewTree().Root())}
	if s.Audit != nil {
		st.Size, st.Leaves = s.Audit.Size, s.Audit.Leaves
		ckpt.Size, ckpt.Root = s.Audit.Size, s.Audit.Root
	}
	recs := []record{
		{typ: wal.TypeDatasetCreate, payload: &walCreate{Name: s.Name, Domain: s.Domain, EpsTotal: s.EpsTotal}},
		{typ: wal.TypeAuditState, payload: st},
	}
	if s.Generation > 0 {
		m := &walMeas{Gen: s.Generation, Consumed: s.Consumed, Full: true}
		recs = append(recs, record{typ: wal.TypeMeasurementBlock, payload: m, blocks: blocks})
	} else if s.Consumed > 0 {
		recs = append(recs, record{typ: wal.TypeBudgetRestore, payload: &walBudget{Consumed: s.Consumed}})
	}
	return append(recs, record{typ: wal.TypeAuditCheckpoint, payload: ckpt})
}
