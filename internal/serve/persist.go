package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core/inference"
	"repro/internal/mat"
)

// This file is the block codec: the JSON form of one measurement block
// — the query matrix over the root domain (dense row-major when ≥⅓ of
// the entries are nonzero, coordinate triplets otherwise), the noisy
// answers and the per-row noise scale — in every measurement record
// (walstate.go).

// maxPanelCells bounds the cells (domain × k) of a persisted estimate
// panel, so a hostile or corrupted sidecar cannot force an absurd
// allocation before validation finishes.
const maxPanelCells = 1 << 24

// ErrSnapshot wraps every failure to load persisted state.
var ErrSnapshot = errors.New("serve: invalid snapshot")

// wireTriplet is one sparse matrix entry.
type wireTriplet struct {
	R int     `json:"r"`
	C int     `json:"c"`
	V float64 `json:"v"`
}

// wireBlock is one measurement block in the codec.
type wireBlock struct {
	Rows   int           `json:"rows"`
	Cols   int           `json:"cols"`
	Dense  []float64     `json:"dense,omitempty"`  // row-major, len rows*cols
	Sparse []wireTriplet `json:"sparse,omitempty"` // exactly one of Dense/Sparse is set
	Y      []float64     `json:"y"`
	Scale  float64       `json:"scale"`
}

// appendJSON appends the block's JSON encoding to dst. It is the only
// block encoder — bootstrap frames (and so compacted logs) and replay-side
// commitments reach it through MarshalJSON, a commit through
// appendBlocksJSON — and writes byte for byte what encoding/json does
// for the same struct without methods (omitempty and non-finite errors
// included), so older records and commitments replay unchanged.
func (b wireBlock) appendJSON(dst []byte) (_ []byte, err error) {
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
func (b wireBlock) MarshalJSON() ([]byte, error) { return b.appendJSON(nil) }

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

// canonicalMatrix re-represents a measurement matrix in the block
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

// encodeBlock converts a warm measurement block to its codec form.
// Committed blocks are always canonical (*mat.Dense or *mat.Sparse —
// see commitBlocksLocked), so encoding mirrors the in-memory
// representation exactly — dense stays dense, CSR stays triplets — and
// emits the existing storage without re-materializing anything; the
// decode side then rebuilds the very same representation, which is what
// keeps restarted servers bit-identical.
func encodeBlock(b measBlock) wireBlock {
	out := wireBlock{Y: b.y, Scale: b.scale}
	switch m := b.m.(type) {
	case *mat.Dense:
		out.Rows, out.Cols = m.Dims()
		out.Dense = m.Data()
	case *mat.Sparse:
		r, c := m.Dims()
		out.Rows, out.Cols = r, c
		out.Sparse = make([]wireTriplet, 0, m.NNZ())
		for i := 0; i < r; i++ {
			colIdx, vals := m.RowNNZ(i)
			for j, col := range colIdx {
				out.Sparse = append(out.Sparse, wireTriplet{R: i, C: col, V: vals[j]})
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
func decodeBlock(i int, b wireBlock, domain int) (measBlock, error) {
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

// checkPanel validates a persisted domain×k estimate panel.
func checkPanel(domain, k int, panel []float64) error {
	if k < 1 || domain > maxPanelCells/k || len(panel) != domain*k {
		return fmt.Errorf("panel length %d against domain %d × k %d", len(panel), domain, k)
	}
	for _, v := range panel {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite panel entry %g", v)
		}
	}
	return nil
}
