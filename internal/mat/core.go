package mat

import "fmt"

// This file defines the core implicit matrices of paper §7.4: Identity,
// Ones (with the Total special case), Prefix, Suffix and Wavelet. Each
// stores O(1) state and implements mat-vec in the cost reported in paper
// Table 2.

// IdentityMat is the n×n identity, stored as just its size.
type IdentityMat struct{ n int }

// Identity returns the n×n identity matrix.
func Identity(n int) *IdentityMat {
	if n < 0 {
		panic("mat: Identity negative size")
	}
	return &IdentityMat{n: n}
}

// Dims returns (n, n).
func (m *IdentityMat) Dims() (int, int) { return m.n, m.n }

// MatVec copies x into dst.
func (m *IdentityMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	copy(dst, x)
}

// TMatVec copies x into dst (the identity is symmetric).
func (m *IdentityMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	copy(dst, x)
}

// MatMat copies the panel (identity on every column).
func (m *IdentityMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	copy(dst, x)
}

// TMatMat copies the panel.
func (m *IdentityMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	copy(dst, x)
}

// Abs returns the identity itself (a no-op, paper §7.4).
func (m *IdentityMat) Abs() Matrix { return m }

// OnesMat is the m×n all-ones matrix stored as its dimensions.
type OnesMat struct{ r, c int }

// Ones returns the rows×cols matrix of all ones.
func Ones(rows, cols int) *OnesMat {
	if rows < 0 || cols < 0 {
		panic("mat: Ones negative size")
	}
	return &OnesMat{r: rows, c: cols}
}

// Total returns the 1×n all-ones matrix, the query that sums the whole
// data vector (paper §7.4: Total is the m=1 special case of Ones).
func Total(n int) *OnesMat { return Ones(1, n) }

// Dims returns the matrix dimensions.
func (m *OnesMat) Dims() (int, int) { return m.r, m.c }

// MatVec sets every entry of dst to sum(x), in O(m+n).
func (m *OnesMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	var s float64
	for _, v := range x {
		s += v
	}
	for i := range dst {
		dst[i] = s
	}
}

// TMatVec sets every entry of dst to sum(x).
func (m *OnesMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	var s float64
	for _, v := range x {
		s += v
	}
	for i := range dst {
		dst[i] = s
	}
}

// MatMat broadcasts the per-column sums of the panel to every output row.
func (m *OnesMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	onesPanel(dst, x, k)
}

// TMatMat broadcasts the per-column sums of the panel.
func (m *OnesMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	onesPanel(dst, x, k)
}

// onesPanel sets every row of dst to the column sums of x.
func onesPanel(dst, x []float64, k int) {
	s := getScratch(k)
	for t := range s.buf {
		s.buf[t] = 0
	}
	for i := 0; i+k <= len(x); i += k {
		xr := x[i : i+k]
		for t, v := range xr {
			s.buf[t] += v
		}
	}
	for i := 0; i+k <= len(dst); i += k {
		copy(dst[i:i+k], s.buf)
	}
	s.put()
}

// Abs is a no-op for the all-ones matrix.
func (m *OnesMat) Abs() Matrix { return m }

// PrefixMat is the n×n lower-triangular all-ones matrix encoding the
// empirical CDF (paper Example 7.1). Mat-vec runs in O(n) with O(1) state.
type PrefixMat struct{ n int }

// Prefix returns the n×n prefix-sum (lower-triangular ones) matrix.
func Prefix(n int) *PrefixMat {
	if n < 0 {
		panic("mat: Prefix negative size")
	}
	return &PrefixMat{n: n}
}

// Dims returns (n, n).
func (m *PrefixMat) Dims() (int, int) { return m.n, m.n }

// MatVec computes running prefix sums: dst[k] = x[0]+...+x[k].
func (m *PrefixMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	var acc float64
	for i, v := range x {
		acc += v
		dst[i] = acc
	}
}

// TMatVec computes suffix sums: dst[j] = x[j]+...+x[n-1], since
// Prefixᵀ = Suffix.
func (m *PrefixMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	var acc float64
	for i := m.n - 1; i >= 0; i-- {
		acc += x[i]
		dst[i] = acc
	}
}

// MatMat computes running prefix sums down the panel rows; the k-wide
// inner loop keeps the recurrence independent per column.
func (m *PrefixMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	prefixPanel(dst, x, m.n, k)
}

// TMatMat computes suffix sums down the panel rows (Prefixᵀ = Suffix).
func (m *PrefixMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	suffixPanel(dst, x, m.n, k)
}

// prefixPanel sets dst row i to the sum of x rows 0..i.
func prefixPanel(dst, x []float64, n, k int) {
	if n == 0 {
		return
	}
	copy(dst[:k], x[:k])
	for i := 1; i < n; i++ {
		prev := dst[(i-1)*k : i*k]
		cur := dst[i*k : (i+1)*k]
		xr := x[i*k : (i+1)*k]
		for t := range cur {
			cur[t] = prev[t] + xr[t]
		}
	}
}

// suffixPanel sets dst row i to the sum of x rows i..n-1.
func suffixPanel(dst, x []float64, n, k int) {
	if n == 0 {
		return
	}
	copy(dst[(n-1)*k:n*k], x[(n-1)*k:n*k])
	for i := n - 2; i >= 0; i-- {
		next := dst[(i+1)*k : (i+2)*k]
		cur := dst[i*k : (i+1)*k]
		xr := x[i*k : (i+1)*k]
		for t := range cur {
			cur[t] = next[t] + xr[t]
		}
	}
}

// Abs is a no-op (binary matrix).
func (m *PrefixMat) Abs() Matrix { return m }

// SuffixMat is the n×n upper-triangular all-ones matrix, the transpose of
// Prefix (paper §7.4).
type SuffixMat struct{ n int }

// Suffix returns the n×n suffix-sum matrix.
func Suffix(n int) *SuffixMat {
	if n < 0 {
		panic("mat: Suffix negative size")
	}
	return &SuffixMat{n: n}
}

// Dims returns (n, n).
func (m *SuffixMat) Dims() (int, int) { return m.n, m.n }

// MatVec computes suffix sums.
func (m *SuffixMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	var acc float64
	for i := m.n - 1; i >= 0; i-- {
		acc += x[i]
		dst[i] = acc
	}
}

// TMatVec computes prefix sums (Suffixᵀ = Prefix).
func (m *SuffixMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	var acc float64
	for i, v := range x {
		acc += v
		dst[i] = acc
	}
}

// MatMat computes suffix sums down the panel rows.
func (m *SuffixMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	suffixPanel(dst, x, m.n, k)
}

// TMatMat computes prefix sums down the panel rows (Suffixᵀ = Prefix).
func (m *SuffixMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	prefixPanel(dst, x, m.n, k)
}

// Abs is a no-op (binary matrix).
func (m *SuffixMat) Abs() Matrix { return m }

// WaveletMat is the n×n Haar wavelet transform (n a power of two) with
// averaging normalization: one stage maps (a,b) to ((a+b)/2, (a-b)/2).
// Mat-vec runs in O(n) via the fast transform; each matrix entry is the
// product of the stage coefficients along a unique averaging-tree path, so
// Abs admits the same fast algorithm with |c| stage coefficients (paper
// Table 2: O(1) space, near-linear time).
type WaveletMat struct {
	n   int
	abs bool // coefficients 1/2 instead of ±1/2
}

// Wavelet returns the n×n Haar wavelet transform. n must be a positive
// power of two.
func Wavelet(n int) *WaveletMat {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("mat: Wavelet size %d is not a positive power of two", n))
	}
	return &WaveletMat{n: n}
}

// Dims returns (n, n).
func (m *WaveletMat) Dims() (int, int) { return m.n, m.n }

// stage coefficients: forward pair (a,b) -> (ca*(a+b), cd*(a +/- b)).
func (m *WaveletMat) coeffs() (c float64, signed bool) { return 0.5, !m.abs }

// MatVec applies the fast Haar decomposition. Output layout:
// [overall average, coarsest detail, ..., finest n/2 details].
func (m *WaveletMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	c, signed := m.coeffs()
	copy(dst, x)
	s := getScratch(m.n)
	tmp := s.buf
	for length := m.n; length > 1; length /= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			a, b := dst[2*i], dst[2*i+1]
			tmp[i] = c * (a + b)
			if signed {
				tmp[half+i] = c * (a - b)
			} else {
				tmp[half+i] = c * (a + b)
			}
		}
		copy(dst[:length], tmp[:length])
	}
	s.put()
}

// TMatVec applies the transposed transform (the reversed composition of
// transposed stages).
func (m *WaveletMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	c, signed := m.coeffs()
	copy(dst, x)
	s := getScratch(m.n)
	tmp := s.buf
	for length := 2; length <= m.n; length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			a, d := dst[i], dst[half+i]
			if signed {
				tmp[2*i] = c * (a + d)
				tmp[2*i+1] = c * (a - d)
			} else {
				tmp[2*i] = c * (a + d)
				tmp[2*i+1] = c * (a + d)
			}
		}
		copy(dst[:length], tmp[:length])
	}
	s.put()
}

// MatMat applies the fast Haar decomposition to every panel column at
// once: the stage butterflies operate on contiguous k-wide rows.
func (m *WaveletMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	c, signed := m.coeffs()
	copy(dst, x)
	s := getScratch(m.n * k)
	tmp := s.buf
	for length := m.n; length > 1; length /= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			a := dst[2*i*k : (2*i+1)*k]
			b := dst[(2*i+1)*k : (2*i+2)*k]
			lo := tmp[i*k : (i+1)*k]
			hi := tmp[(half+i)*k : (half+i+1)*k]
			if signed {
				for t := range a {
					lo[t] = c * (a[t] + b[t])
					hi[t] = c * (a[t] - b[t])
				}
			} else {
				for t := range a {
					v := c * (a[t] + b[t])
					lo[t] = v
					hi[t] = v
				}
			}
		}
		copy(dst[:length*k], tmp[:length*k])
	}
	s.put()
}

// TMatMat applies the transposed transform to every panel column at once.
func (m *WaveletMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	c, signed := m.coeffs()
	copy(dst, x)
	s := getScratch(m.n * k)
	tmp := s.buf
	for length := 2; length <= m.n; length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			a := dst[i*k : (i+1)*k]
			d := dst[(half+i)*k : (half+i+1)*k]
			even := tmp[2*i*k : (2*i+1)*k]
			odd := tmp[(2*i+1)*k : (2*i+2)*k]
			if signed {
				for t := range a {
					even[t] = c * (a[t] + d[t])
					odd[t] = c * (a[t] - d[t])
				}
			} else {
				for t := range a {
					v := c * (a[t] + d[t])
					even[t] = v
					odd[t] = v
				}
			}
		}
		copy(dst[:length*k], tmp[:length*k])
	}
	s.put()
}

// Abs returns the element-wise absolute value as another implicit wavelet.
func (m *WaveletMat) Abs() Matrix { return &WaveletMat{n: m.n, abs: true} }
