// Package kernel implements EKTELO's protected kernel (paper §4): the
// trusted component that holds the private data, services privileged
// operator requests, tracks the transformation graph with per-source
// stability, and enforces the global privacy budget with the recursive
// request procedure of the paper's Algorithm 2 (including the special
// accounting for partition variables that realizes parallel composition).
//
// Client code holds only opaque *Handle values; the raw table and vector
// state never leaves the kernel except through noisy Private→Public
// operators (VectorLaplace, WorstApprox, NoisyMax).
//
// # Sessions and concurrency
//
// The kernel is service-grade: any number of client sessions may drive
// one kernel concurrently. Each *Session owns an independent RNG stream
// (derived from a root rand/v2 source, so runs are reproducible per
// session), while the shared transformation graph, budget trackers and
// query history live behind the kernel mutex. Every Private→Public
// operator commits its Algorithm 2 charge and history record in one
// critical section, so budget accounting is linearizable across
// sessions: interleaved requests behave as if executed in some serial
// order, and the global budget can never be overdrawn by a race.
//
// A Session (and the handles bound to it) must be used by one goroutine
// at a time; distinct sessions are safe concurrently. Handles returned
// by the Init functions are bound to the root session; Session.Bind
// rebinds any handle to another session without touching kernel state.
package kernel

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/noise"
)

// ErrBudgetExceeded is returned when a Private→Public operator would push
// cumulative consumption past the global budget. The decision to return
// it never depends on the private data (paper §4.3).
var ErrBudgetExceeded = errors.New("kernel: privacy budget exceeded")

// validEps reports whether eps is a usable privacy parameter: strictly
// positive and finite. The naive `eps <= 0` guard lets NaN through
// (every comparison with NaN is false), and a NaN epsilon is a budget
// bypass: Algorithm 2's overdraft comparison `budget+σ > εtotal+slack`
// is also false for NaN, so the charge is granted and the poisoned
// budget tracker makes every later overdraft check false — unlimited
// spending. +Inf is rejected for the same reason: one granted charge
// saturates the tracker and breaks all subsequent accounting.
func validEps(eps float64) bool {
	return eps > 0 && !math.IsInf(eps, 1)
}

// finiteScale reports whether the noise scale an operator derived from
// eps is usable. It is checked before the charge: a denormal eps passes
// validEps, but sensitivity/eps overflows to +Inf, and a charge granted
// for infinite noise hands the caller a non-finite answer that no log
// can record.
func finiteScale(scale float64) bool {
	return !math.IsNaN(scale) && !math.IsInf(scale, 0)
}

type sourceKind int

const (
	kindTable sourceKind = iota
	kindVector
	kindPartition // dummy partition variable (paper §4.4)
)

// node is one data-source variable in the transformation graph. All
// fields except budget are immutable once the node is published by
// addNode; budget is guarded by the kernel mutex.
type node struct {
	id        int
	parent    int // -1 for the root
	kind      sourceKind
	table     *dataset.Table
	vector    []float64
	stability float64 // stability of the transform deriving this node
	budget    float64 // B(sv): budget consumed by queries on sv or descendants
	// edge maps the nearest ancestor *vector* node's domain to this
	// node's domain (x_this = edge · x_ancestorVector); nil for vectorize
	// roots, table nodes and partition dummies. It is public plan
	// metadata used by inference.
	edge mat.Matrix
	// edgeFrom is the id of the vector node edge maps from (for split
	// children this skips the partition dummy); -1 when edge is nil.
	edgeFrom int
}

// Kernel is the protected kernel state (paper §4.4, S_kernel). The
// mutex guards the node slice, every node's budget, the history log and
// the session-seed source; see the package comment for the concurrency
// contract.
type Kernel struct {
	epsTotal float64
	mu       sync.Mutex
	seedSrc  *rand.Rand // derives per-session RNG streams; guarded by mu
	sessions int        // number of sessions created, for Session ids
	rootSess *Session   // the session created by Init; immutable
	nodes    []*node
	history  []QueryRecord
}

// QueryRecord is one entry of the kernel's query history 𝒬.
type QueryRecord struct {
	Source  int
	Epsilon float64
	Kind    string
}

// Handle is a client-visible reference to a protected data source,
// bound to the session whose RNG stream and accounting it uses.
type Handle struct {
	s  *Session
	id int
}

// InitTable initializes a kernel protecting the given table with global
// budget epsTotal (paper Init(T, ε_tot)). The returned handle is bound
// to the root session, whose noise stream is the provided rng.
func InitTable(t *dataset.Table, epsTotal float64, rng *rand.Rand) (*Kernel, *Handle) {
	k := newKernel(epsTotal, rng, nextKernelSeed(), nextKernelSeed())
	id := k.addNodeLocked(&node{parent: -1, kind: kindTable, table: t, stability: 1, edgeFrom: -1})
	return k, &Handle{s: k.rootSession(), id: id}
}

// InitVector initializes a kernel protecting a data vector directly,
// a convenience for plans that operate purely on vectorized data.
func InitVector(x []float64, epsTotal float64, rng *rand.Rand) (*Kernel, *Handle) {
	k := newKernel(epsTotal, rng, nextKernelSeed(), nextKernelSeed())
	id := k.addNodeLocked(&node{parent: -1, kind: kindVector, vector: x, stability: 1, edgeFrom: -1})
	return k, &Handle{s: k.rootSession(), id: id}
}

// InitVectorSeeded is InitVector with all randomness — the root
// session's noise stream and the seed source that forks NewSession
// streams — derived deterministically from one seed, so a fixed
// session-creation order replays every session's noise bit-identically.
func InitVectorSeeded(x []float64, epsTotal float64, seed uint64) (*Kernel, *Handle) {
	k := newKernel(epsTotal, noise.NewRand(seed), seed^seedSaltA, seed^seedSaltB)
	id := k.addNodeLocked(&node{parent: -1, kind: kindVector, vector: x, stability: 1, edgeFrom: -1})
	return k, &Handle{s: k.rootSession(), id: id}
}

const (
	seedSaltA = 0x6a09e667f3bcc908 // session seed-source salts (√2, √3 words)
	seedSaltB = 0xbb67ae8584caa73b
)

// newKernel builds the kernel shell and its root session. The session
// seed source must not consume draws from the caller's rng (existing
// single-session runs replay bit-identically), so it is seeded
// separately: from the caller's seed in the *Seeded constructors, or
// from a process-unique counter in the legacy rng constructors.
func newKernel(epsTotal float64, rng *rand.Rand, s1, s2 uint64) *Kernel {
	// A NaN or ±Inf global budget would make every overdraft comparison
	// false — the same unlimited-spending failure validEps closes for
	// per-query epsilons. Zero or negative budgets are safe (they grant
	// nothing) and stay allowed.
	if math.IsNaN(epsTotal) || math.IsInf(epsTotal, 0) {
		panic(fmt.Sprintf("kernel: global budget must be finite, got %g", epsTotal))
	}
	k := &Kernel{epsTotal: epsTotal}
	k.seedSrc = rand.New(rand.NewPCG(s1, s2))
	k.sessions = 1
	k.rootSess = &Session{k: k, id: 0, rng: rng}
	return k
}

// rootSession returns the session created by Init.
func (k *Kernel) rootSession() *Session { return k.rootSess }

func (k *Kernel) addNodeLocked(n *node) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.addNode(n)
}

// addNode publishes a node; the caller must hold k.mu.
func (k *Kernel) addNode(n *node) int {
	n.id = len(k.nodes)
	k.nodes = append(k.nodes, n)
	return n.id
}

// nodeByID fetches a node pointer under the lock. The returned node's
// immutable fields may be read without the lock afterwards.
func (k *Kernel) nodeByID(id int) *node {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nodes[id]
}

// Consumed returns the budget consumed at the root (total privacy loss).
func (k *Kernel) Consumed() float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nodes[0].budget
}

// EpsTotal returns the kernel's global budget (public metadata).
func (k *Kernel) EpsTotal() float64 { return k.epsTotal }

// History returns a defensive copy of the query history, taken under
// the kernel lock so concurrent readers never observe torn state.
func (k *Kernel) History() []QueryRecord {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]QueryRecord(nil), k.history...)
}

// HistoryLen returns the number of history records in O(1). Summaries
// and health probes that only need the count must use this instead of
// len(History()): the full copy holds the kernel lock for O(queries)
// work, which stalls every concurrent budget charge.
func (k *Kernel) HistoryLen() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.history)
}

// NodeState is a public snapshot of one transformation-graph node's
// bookkeeping (paper §4.4: the stability tracker St and budget tracker
// B). It contains no private data and exists so that audits and tests
// can verify the Algorithm 2 accounting at every node, not just the
// root.
type NodeState struct {
	ID        int
	Parent    int
	Kind      string // "table", "vector" or "partition"
	Stability float64
	Budget    float64
	Domain    int // vector length, or -1 for non-vector nodes
}

// Nodes returns a defensive snapshot of the whole transformation graph
// in creation order, taken atomically under the kernel lock.
func (k *Kernel) Nodes() []NodeState {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]NodeState, len(k.nodes))
	for i, n := range k.nodes {
		kind := "vector"
		domain := -1
		switch n.kind {
		case kindTable:
			kind = "table"
		case kindPartition:
			kind = "partition"
		default:
			domain = len(n.vector)
		}
		out[i] = NodeState{ID: n.id, Parent: n.parent, Kind: kind,
			Stability: n.stability, Budget: n.budget, Domain: domain}
	}
	return out
}

// ID returns the handle's node id, for correlating with Nodes().
func (h *Handle) ID() int { return h.id }

const budgetSlack = 1e-9 // absorbs float accumulation in repeated requests

// request implements the paper's Algorithm 2. fromChild is the node from
// which the request arrived (-1 when sv itself is queried directly).
// The caller must hold k.mu; the whole recursion runs in one critical
// section, which is what makes interleaved session charges linearizable.
func (k *Kernel) request(id, fromChild int, sigma float64) bool {
	n := k.nodes[id]
	switch {
	case n.parent == -1 && n.kind != kindPartition:
		if n.budget+sigma > k.epsTotal+budgetSlack {
			return false
		}
		n.budget += sigma
		return true
	case n.kind == kindPartition:
		if fromChild < 0 {
			panic("kernel: direct query on a partition variable")
		}
		r := k.nodes[fromChild].budget + sigma - n.budget
		if r < 0 {
			r = 0
		}
		if !k.request(n.parent, id, r) {
			return false
		}
		n.budget += r
		return true
	default:
		if !k.request(n.parent, id, n.stability*sigma) {
			return false
		}
		n.budget += sigma
		return true
	}
}

// charge runs Algorithm 2 for a direct query on node id and, on
// success, attributes the root-budget delta to the session and appends
// the history record — one atomic commit per Private→Public operator.
// The epsilon guard is repeated here as defense in depth: the operators
// reject invalid epsilons with descriptive errors, but any future
// caller that forgets must not be able to poison the budget tracker
// with NaN/Inf (see validEps).
func (k *Kernel) charge(s *Session, id int, eps float64, kind string) bool {
	if !validEps(eps) {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	before := k.nodes[0].budget
	if !k.request(id, -1, eps) {
		return false
	}
	s.consumed += k.nodes[0].budget - before
	s.charges++
	k.history = append(k.history, QueryRecord{Source: id, Epsilon: eps, Kind: kind})
	return true
}

// RestoreConsumed raises the root's consumed budget to the absolute
// value total, attributing the difference to the root session under a
// "Restore" history record; a total at or below the current consumption
// is a no-op, since budget only grows. Services use it when replaying a
// persisted measurement log and when mirroring a primary's log on a
// replica, so a restarted or replicated kernel cannot re-grant budget
// that was already spent (re-spending would be a privacy violation, not
// a bookkeeping nit). The root takes total itself rather than its sum
// with the difference, so it holds the recorded value bit for bit.
// NaN, Inf and negative totals are rejected, and a total beyond the
// global budget fails with ErrBudgetExceeded.
func (k *Kernel) RestoreConsumed(total float64) error {
	if !(total >= 0) || math.IsInf(total, 0) {
		return fmt.Errorf("kernel: RestoreConsumed requires a finite non-negative total, got %g", total)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	delta := total - k.nodes[0].budget
	if !(delta > 0) {
		return nil
	}
	if total > k.epsTotal+budgetSlack {
		return fmt.Errorf("%w: restoring %g over remaining %g", ErrBudgetExceeded, delta, k.epsTotal-k.nodes[0].budget)
	}
	k.nodes[0].budget = total
	k.rootSess.consumed += delta
	k.rootSess.charges++
	// Consecutive restores extend one history record, so a replayed log
	// reads the same however many of its records raised the budget.
	if h := len(k.history) - 1; h >= 0 && k.history[h].Kind == "Restore" {
		k.history[h].Epsilon += delta
	} else {
		k.history = append(k.history, QueryRecord{Source: 0, Epsilon: delta, Kind: "Restore"})
	}
	return nil
}

// Stability returns the stability of the node's deriving transform.
func (h *Handle) Stability() float64 { return h.kernel().nodeByID(h.id).stability }

// kernel returns the owning kernel.
func (h *Handle) kernel() *Kernel { return h.s.k }

// node fetches the handle's node with kind validation.
func (h *Handle) node(want sourceKind) *node {
	n := h.kernel().nodeByID(h.id)
	if n.kind != want {
		panic(fmt.Sprintf("kernel: handle %d has kind %d, operator requires %d", h.id, n.kind, want))
	}
	return n
}

// Domain returns the length of a vector source; it is public metadata.
func (h *Handle) Domain() int { return len(h.node(kindVector).vector) }

// derive publishes a child node and returns its handle, bound to the
// same session as the parent handle.
func (h *Handle) derive(n *node) *Handle {
	id := h.kernel().addNodeLocked(n)
	return &Handle{s: h.s, id: id}
}

// ---------------------------------------------------------------------
// Transformation operators (Private: act on protected state, return only
// acknowledgement via a new handle).
// ---------------------------------------------------------------------

// Where applies a predicate filter to a table source (1-stable).
func (h *Handle) Where(p dataset.Predicate) *Handle {
	n := h.node(kindTable)
	return h.derive(&node{parent: h.id, kind: kindTable, table: n.table.Where(p), stability: 1, edgeFrom: -1})
}

// Select projects a table source onto the named attributes (1-stable).
func (h *Handle) Select(names ...string) *Handle {
	n := h.node(kindTable)
	return h.derive(&node{parent: h.id, kind: kindTable, table: n.table.Select(names...), stability: 1, edgeFrom: -1})
}

// SplitTableByPartition splits a table source into disjoint sub-tables
// by a grouping of the named attribute's values (the table-level TP
// operator of paper §5.1). Like the vector split, a dummy partition
// variable is inserted so budget spent on different groups composes in
// parallel. groups[v] is the group of attribute value v (-1 drops it).
func (h *Handle) SplitTableByPartition(attr string, groups []int, numGroups int) []*Handle {
	n := h.node(kindTable)
	parts := n.table.SplitByPartition(attr, groups, numGroups)
	k := h.kernel()
	k.mu.Lock()
	defer k.mu.Unlock()
	dummy := k.addNode(&node{parent: h.id, kind: kindPartition, stability: 1, edgeFrom: -1})
	out := make([]*Handle, numGroups)
	for g, sub := range parts {
		id := k.addNode(&node{parent: dummy, kind: kindTable, table: sub, stability: 1, edgeFrom: -1})
		out[g] = &Handle{s: h.s, id: id}
	}
	return out
}

// GroupBy replaces a table source by its per-value projection onto the
// named attribute, keeping one representative row per distinct value
// (the PINQ-style GroupBy of paper §5.1). Removing one input row can
// both remove one group and create another, so the transform is
// 2-stable; the budget accounting reflects that automatically.
func (h *Handle) GroupBy(attr string) *Handle {
	n := h.node(kindTable)
	col := n.table.Column(attr)
	k := n.table.Schema().Index(attr)
	if k < 0 {
		panic(fmt.Sprintf("kernel: GroupBy unknown attribute %q", attr))
	}
	grouped := dataset.New(dataset.Schema{n.table.Schema()[k]})
	seen := map[int]bool{}
	for _, v := range col {
		if !seen[v] {
			seen[v] = true
			grouped.Append(v)
		}
	}
	return h.derive(&node{parent: h.id, kind: kindTable, table: grouped, stability: 2, edgeFrom: -1})
}

// Vectorize converts a table source into its count vector over the full
// attribute domain (T-Vectorize; 1-stable). The resulting node is a
// lineage root: measurements on its descendants map back to this domain.
func (h *Handle) Vectorize() *Handle {
	n := h.node(kindTable)
	return h.derive(&node{parent: h.id, kind: kindVector, vector: n.table.Vectorize(), stability: 1, edgeFrom: -1})
}

// ReduceByPartition applies the V-ReduceByPartition transform: the new
// vector is P·x for the p×n partition matrix P (1-stable, since partition
// matrices have unit L1 column norms).
func (h *Handle) ReduceByPartition(p mat.Matrix) *Handle {
	n := h.node(kindVector)
	pr, pc := p.Dims()
	if pc != len(n.vector) {
		panic(fmt.Sprintf("kernel: partition matrix %dx%d does not match domain %d", pr, pc, len(n.vector)))
	}
	reduced := mat.Mul(p, n.vector)
	return h.derive(&node{parent: h.id, kind: kindVector, vector: reduced, stability: 1, edge: p, edgeFrom: h.id})
}

// Transform applies a general linear vector transform M (x' = M·x). Its
// stability is the maximum L1 column norm of M (paper §5.1), computed
// automatically.
func (h *Handle) Transform(m mat.Matrix) *Handle {
	n := h.node(kindVector)
	_, mc := m.Dims()
	if mc != len(n.vector) {
		panic("kernel: transform matrix does not match domain")
	}
	stability := mat.L1Sensitivity(m)
	return h.derive(&node{parent: h.id, kind: kindVector, vector: mat.Mul(m, n.vector), stability: stability, edge: m, edgeFrom: h.id})
}

// SplitByPartition applies V-SplitByPartition: the data vector is split
// into one sub-vector per partition group (1-stable). A dummy partition
// variable is inserted between the source and the children so that budget
// consumed on disjoint children composes in parallel (paper Algorithm 2).
// groups[i] is the group of cell i; group count is numGroups.
func (h *Handle) SplitByPartition(groups []int, numGroups int) []*Handle {
	n := h.node(kindVector)
	if len(groups) != len(n.vector) {
		panic("kernel: SplitByPartition group map size mismatch")
	}
	// Collect the cell indices of each group, in domain order.
	members := make([][]int, numGroups)
	for i, g := range groups {
		if g < 0 {
			continue
		}
		if g >= numGroups {
			panic("kernel: SplitByPartition group out of range")
		}
		members[g] = append(members[g], i)
	}
	k := h.kernel()
	k.mu.Lock()
	defer k.mu.Unlock()
	dummy := k.addNode(&node{parent: h.id, kind: kindPartition, stability: 1})
	out := make([]*Handle, numGroups)
	for g, cells := range members {
		sub := make([]float64, len(cells))
		entries := make([]mat.Triplet, len(cells))
		for j, c := range cells {
			sub[j] = n.vector[c]
			entries[j] = mat.Triplet{Row: j, Col: c, Val: 1}
		}
		sel := mat.NewSparse(len(cells), len(n.vector), entries)
		// The edge skips the partition dummy: it maps from the vector
		// node being split.
		id := k.addNode(&node{parent: dummy, kind: kindVector, vector: sub, stability: 1, edge: sel, edgeFrom: h.id})
		out[g] = &Handle{s: h.s, id: id}
	}
	return out
}

// Lineage returns the public linear map L from the nearest vectorize
// root to this vector source's domain (x_this = L·x_root), or nil when
// the source is itself a root.
func (h *Handle) Lineage() mat.Matrix {
	k := h.kernel()
	k.mu.Lock()
	defer k.mu.Unlock()
	n := k.nodes[h.id]
	if n.edge == nil {
		return nil
	}
	l := n.edge
	cur := k.nodes[n.edgeFrom]
	for cur.edge != nil {
		l = mat.Product(l, cur.edge)
		cur = k.nodes[cur.edgeFrom]
	}
	return l
}

// MapToRoot lifts a measurement matrix defined on this source's domain to
// the vectorize-root domain: M_root = M·L (paper §5.5, inference under
// vector transformations). This is public plan metadata.
func (h *Handle) MapToRoot(m mat.Matrix) mat.Matrix {
	l := h.Lineage()
	if l == nil {
		return m
	}
	return mat.Product(m, l)
}

// MapTo lifts a measurement matrix defined on this source's domain to
// the domain of an ancestor vector source: M_anc = M·E_h·…·E_(anc+1).
// Plans use it to run inference relative to whatever vector handle they
// were given, not necessarily the global vectorize root.
func (h *Handle) MapTo(anc *Handle, m mat.Matrix) mat.Matrix {
	k := h.kernel()
	if k != anc.kernel() {
		panic("kernel: MapTo across kernels")
	}
	if h.id == anc.id {
		return m
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	out := m
	cur := k.nodes[h.id]
	for {
		if cur.edge == nil {
			panic(fmt.Sprintf("kernel: node %d is not derived from node %d", h.id, anc.id))
		}
		out = mat.Product(out, cur.edge)
		if cur.edgeFrom == anc.id {
			return out
		}
		cur = k.nodes[cur.edgeFrom]
	}
}

// ---------------------------------------------------------------------
// Query operators (Private→Public: consume budget, return noisy values).
// ---------------------------------------------------------------------

// VectorLaplace answers the query set M on a vector source with the
// Laplace mechanism: M·x + (σ(M)/ε)·b, where σ(M) is the maximum L1
// column norm, computed automatically from the implicit representation
// (paper §5.2). The per-row noise scale is returned for inference
// weighting.
func (h *Handle) VectorLaplace(m mat.Matrix, eps float64) (answers []float64, noiseScale float64, err error) {
	n := h.node(kindVector)
	if !validEps(eps) {
		return nil, 0, fmt.Errorf("kernel: VectorLaplace requires positive finite eps, got %g", eps)
	}
	_, mc := m.Dims()
	if mc != len(n.vector) {
		return nil, 0, fmt.Errorf("kernel: VectorLaplace matrix cols %d != domain %d", mc, len(n.vector))
	}
	sens := mat.L1Sensitivity(m)
	scale := sens / eps
	if !finiteScale(scale) {
		return nil, 0, fmt.Errorf("kernel: VectorLaplace noise scale %g at eps %g is not finite", scale, eps)
	}
	if !h.kernel().charge(h.s, h.id, eps, "VectorLaplace") {
		return nil, 0, ErrBudgetExceeded
	}
	y := mat.Mul(m, n.vector)
	for i := range y {
		y[i] += noise.Laplace(h.s.rng, scale)
	}
	return y, scale, nil
}

// WorstApprox privately selects the row of workload W whose true answer
// is worst approximated by the public estimate est, using the exponential
// mechanism with score |w·x − w·est| (paper §5.3, the MWEM selection
// operator). rowSens bounds the per-record change of any single score;
// for counting queries with 0/1 coefficients it is 1.
func (h *Handle) WorstApprox(w mat.Matrix, est []float64, eps, rowSens float64) (int, error) {
	n := h.node(kindVector)
	if !validEps(eps) || !(rowSens > 0) {
		return 0, fmt.Errorf("kernel: WorstApprox requires positive finite eps and positive rowSens")
	}
	if !h.kernel().charge(h.s, h.id, eps, "WorstApprox") {
		return 0, ErrBudgetExceeded
	}
	// Answer the whole workload on both vectors at once: a two-column
	// panel product is one pass over W instead of two full mat-vecs.
	rows, _ := w.Dims()
	out := mat.Mul2(w, n.vector, est)
	scores := make([]float64, rows)
	for i := range scores {
		d := out[2*i] - out[2*i+1]
		if d < 0 {
			d = -d
		}
		scores[i] = d
	}
	return noise.Exponential(h.s.rng, scores, eps, rowSens), nil
}

// NoisyMax privately selects the index with the (approximately) largest
// score among the linear queries in M evaluated on the source, via the
// exponential mechanism. It generalizes WorstApprox for selection-style
// operators such as PrivBayes parent selection.
func (h *Handle) NoisyMax(scoresOf func(x []float64) []float64, eps, sens float64) (int, error) {
	n := h.node(kindVector)
	if !validEps(eps) || !(sens > 0) {
		return 0, fmt.Errorf("kernel: NoisyMax requires positive finite eps and positive sens")
	}
	if !h.kernel().charge(h.s, h.id, eps, "NoisyMax") {
		return 0, ErrBudgetExceeded
	}
	scores := scoresOf(n.vector)
	return noise.Exponential(h.s.rng, scores, eps, sens), nil
}
