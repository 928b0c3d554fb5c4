// Package dataset provides the relational substrate EKTELO computes over:
// a single-relation schema of discrete attributes (paper §3), columnar
// tables, the table transformations of §5.1 (Where, Select,
// SplitByPartition) and the T-Vectorize operation mapping a table to its
// count vector over the attribute-domain product.
package dataset

import (
	"fmt"
)

// Attribute is a discrete attribute with values in [0, Size).
type Attribute struct {
	Name string
	Size int
}

// Schema is an ordered list of attributes.
type Schema []Attribute

// DomainSize returns the product of the attribute domain sizes — the
// length of the vectorized representation (paper §3).
func (s Schema) DomainSize() int {
	n := 1
	for _, a := range s {
		n *= a.Size
	}
	return n
}

// Index returns the position of the named attribute, or -1.
func (s Schema) Index(name string) int {
	for i, a := range s {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Strides returns the row-major stride of each attribute in the
// vectorized domain (the last attribute varies fastest).
func (s Schema) Strides() []int {
	strides := make([]int, len(s))
	n := 1
	for k := len(s) - 1; k >= 0; k-- {
		strides[k] = n
		n *= s[k].Size
	}
	return strides
}

// Sizes returns the per-attribute domain sizes.
func (s Schema) Sizes() []int {
	out := make([]int, len(s))
	for i, a := range s {
		out[i] = a.Size
	}
	return out
}

// Table is a columnar table over a Schema. Cell values are attribute
// value indices in [0, Size).
type Table struct {
	schema Schema
	cols   [][]int
}

// New returns an empty table with the given schema. The schema is copied.
func New(schema Schema) *Table {
	s := make(Schema, len(schema))
	copy(s, schema)
	return &Table{schema: s, cols: make([][]int, len(s))}
}

// Schema returns the table's schema (shared; do not mutate).
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

// Append adds a row; the number of values must match the schema and each
// value must lie inside its attribute domain.
func (t *Table) Append(row ...int) {
	if len(row) != len(t.schema) {
		panic(fmt.Sprintf("dataset: Append %d values to %d-attribute table", len(row), len(t.schema)))
	}
	for k, v := range row {
		if v < 0 || v >= t.schema[k].Size {
			panic(fmt.Sprintf("dataset: value %d outside domain of %q (size %d)", v, t.schema[k].Name, t.schema[k].Size))
		}
		t.cols[k] = append(t.cols[k], v)
	}
}

// Row returns row i as a fresh slice.
func (t *Table) Row(i int) []int {
	row := make([]int, len(t.cols))
	for k := range t.cols {
		row[k] = t.cols[k][i]
	}
	return row
}

// Column returns the values of the named attribute (shared slice).
func (t *Table) Column(name string) []int {
	k := t.schema.Index(name)
	if k < 0 {
		panic(fmt.Sprintf("dataset: unknown attribute %q", name))
	}
	return t.cols[k]
}

// Condition is an inclusive range condition Attr ∈ [Lo, Hi], the
// declarative condition formula ϕ of paper Definition 3.1 restricted to
// interval predicates (equality is Lo==Hi).
type Condition struct {
	Attr   string
	Lo, Hi int
}

// Predicate is a conjunction of conditions.
type Predicate []Condition

// Eq returns the equality condition Attr == v.
func Eq(attr string, v int) Condition { return Condition{Attr: attr, Lo: v, Hi: v} }

// Matches reports whether the predicate holds on row i of t.
func (p Predicate) Matches(t *Table, i int) bool {
	for _, c := range p {
		k := t.schema.Index(c.Attr)
		if k < 0 {
			panic(fmt.Sprintf("dataset: unknown attribute %q in predicate", c.Attr))
		}
		v := t.cols[k][i]
		if v < c.Lo || v > c.Hi {
			return false
		}
	}
	return true
}

// Where returns the sub-table of rows satisfying the predicate
// (1-stable; paper §5.1).
func (t *Table) Where(p Predicate) *Table {
	out := New(t.schema)
	n := t.NumRows()
	for i := 0; i < n; i++ {
		if p.Matches(t, i) {
			for k := range t.cols {
				out.cols[k] = append(out.cols[k], t.cols[k][i])
			}
		}
	}
	return out
}

// Select returns the projection onto the named attributes (1-stable;
// paper §5.1). Duplicates rows are kept (bag semantics).
func (t *Table) Select(names ...string) *Table {
	schema := make(Schema, len(names))
	idx := make([]int, len(names))
	for i, name := range names {
		k := t.schema.Index(name)
		if k < 0 {
			panic(fmt.Sprintf("dataset: Select unknown attribute %q", name))
		}
		schema[i] = t.schema[k]
		idx[i] = k
	}
	out := New(schema)
	for i, k := range idx {
		out.cols[i] = append([]int(nil), t.cols[k]...)
	}
	return out
}

// SplitByPartition partitions the rows by the group assigned to each row
// (groups[i] is the group of rows with attribute value i of the named
// attribute; -1 drops the value). It returns one table per group
// (1-stable; paper §5.1).
func (t *Table) SplitByPartition(attr string, groups []int, numGroups int) []*Table {
	k := t.schema.Index(attr)
	if k < 0 {
		panic(fmt.Sprintf("dataset: SplitByPartition unknown attribute %q", attr))
	}
	if len(groups) != t.schema[k].Size {
		panic("dataset: SplitByPartition group map size mismatch")
	}
	out := make([]*Table, numGroups)
	for g := range out {
		out[g] = New(t.schema)
	}
	n := t.NumRows()
	for i := 0; i < n; i++ {
		g := groups[t.cols[k][i]]
		if g < 0 {
			continue
		}
		for c := range t.cols {
			out[g].cols[c] = append(out[g].cols[c], t.cols[c][i])
		}
	}
	return out
}

// Vectorize returns the count vector x over the schema's full domain
// product: x[idx] is the number of rows whose attribute values encode to
// idx (paper §5.1, T-Vectorize; 1-stable).
func (t *Table) Vectorize() []float64 {
	strides := t.schema.Strides()
	x := make([]float64, t.schema.DomainSize())
	n := t.NumRows()
	for i := 0; i < n; i++ {
		idx := 0
		for k := range t.cols {
			idx += t.cols[k][i] * strides[k]
		}
		x[idx]++
	}
	return x
}
