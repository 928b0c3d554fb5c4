// Package serve implements the ektelo query service: a front end that
// keeps per-dataset vectorized state and measurement logs warm inside a
// concurrent protected kernel and answers client workloads through the
// batched panel tier (the ROADMAP's sharding/serving direction).
//
// Each dataset owns one kernel.Kernel; every measurement request runs
// in its own kernel session (independent noise stream, linearizable
// Algorithm 2 budget accounting), so any number of clients can spend
// budget concurrently without coordination. Measurement is two-mode:
// fixed named strategies (Measure) or full Fig. 2 registry plans
// executed by name (MeasurePlan / the /plan endpoint), whose
// measurements — combinator plans included — land in the same warm log.
// Query answering is pure post-processing: a workload answered before
// at the current measurement-log generation is served
// from a per-dataset cache on the request goroutine (cache.go), and
// only misses reach the per-dataset batcher, which coalesces concurrent
// clients' range workloads into one panel and answers them with a
// single mat.MatMat pass over the dataset's estimate panel. With
// Config.StateDir set, every measurement commit is synced to disk before
// the request returns and is restored (spent budget included) when the
// dataset is re-created: each commit appends one
// CRC-framed record to a per-dataset write-ahead log that is
// periodically compacted into a fresh log holding only the records that
// rebuild the current state (the stream a follower resyncs from); torn
// log tails truncate cleanly on restart, and an unrecoverable disk error
// degrades the dataset to explicit read-only (ErrReadOnly, HTTP 503)
// while queries keep serving — see walstate.go. A commit costs O(nnz
// of its block) and does that work (canonicalise, encode, hash) before
// the dataset mutex: prepareCommit, then commitBlocksLocked.
//
// The log is the dataset's state machine: one transition,
// applyRecordLocked (walstate.go), turns a log record into state for
// the primary's commits, the restart's WAL replay and a follower's
// apply alike, and only the gates around it differ. The WAL doubles as
// the serve tier's replication stream (repl.go): every dataset serves
// its commit history as verbatim frames (WALTail, GET
// /v1/datasets/{name}/wal), and follower datasets (CreateFollower) on
// other processes apply it through that transition — bit-identical
// read replicas that mirror but never spend budget and refuse writes
// with ErrNotPrimary (HTTP 421). internal/cluster builds the consistent-hash routing, health
// probing and failover tier on top; /healthz and /v1/status (status.go)
// are the probe surface.
//
// The estimate panel is refreshed lazily after new measurements by one
// block solve — solver.LSMRMulti (the paper's named solver),
// solver.CGLSMulti, solver.NNLSMulti, or the direct normal-equations
// solver.NormalMulti, selected by Config.Solver or per dataset at
// create time (optionally with Tikhonov damping λ): column 0 is the
// least-squares estimate of the data vector from the full measurement
// log, and the remaining columns are parametric-bootstrap replicates —
// the same system solved against re-noised right-hand sides — whose
// spread yields per-answer standard errors. The re-noising is drawn
// once per block, in log order, from the dataset's seeded bootstrap
// stream, so standard errors are a function of the log: a restart and
// a replica reproduce them. One block solve prices all columns at one
// pass over the measurement matrix per iteration, and one MatMat pass
// prices all clients' answers and error bars together; the solve's
// termination state is surfaced through Summary and QueryResult so
// truncated (non-converged) estimates are visible to clients.
//
// Refreshes are incremental across measurement generations through one
// mechanism (foldLocked): the blocks committed since the last refresh
// are folded, in log order, into the system the dataset's solver
// family solves, and the fold is redone from the first block only when
// a new block moves the 100× weight cap. The iterative solvers fold
// into a consolidated system — blocks that repeat a strategy matrix
// become one inverse-variance-weighted block (inference.Consolidated),
// so a solve costs the number of distinct strategies in the log, not
// its length — and cgls/lsmr warm-start from the previous generation's
// panel, stopping at the cold solve's absolute convergence target. The
// "normal" solver folds into the weighted normal equations
// (inference.NormalEquations, rank-k mat.GramUpdate passes) and solves
// them directly, so its answers are a function of the log bit for bit
// under any refresh schedule. Summary reports the warm/cold refresh
// counters, saved iterations, and the covered versus pending log rows;
// the estimate panel persists to a sidecar file at commit time so
// restarted datasets warm-start too.
package serve

import (
	"crypto/ed25519"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core/inference"
	"repro/internal/core/ops"
	"repro/internal/core/plans"
	"repro/internal/core/selection"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/solver"
	"repro/internal/wal"
)

// Sentinel errors of the query service, mapped to distinct HTTP statuses
// by the front end (http.go): conditions a client can act on — retry
// after measuring, back off, pick another name — must not all flatten
// into one generic status.
var (
	// ErrNoMeasurements: a query arrived before any budget was spent on
	// the dataset, so there is no estimate to answer from (409: the
	// request conflicts with the dataset's current state; measure first).
	ErrNoMeasurements = errors.New("serve: dataset has no measurements yet")
	// ErrBatcherStopped: the dataset's batcher goroutine is gone (503:
	// the dataset is not serving queries).
	ErrBatcherStopped = errors.New("serve: dataset batcher stopped")
	// ErrServerClosed: the server is shutting down (503).
	ErrServerClosed = errors.New("serve: server closed")
	// ErrDuplicateDataset: create with a name already registered (409).
	ErrDuplicateDataset = errors.New("serve: dataset already exists")
	// ErrUnknownSolver: a solver name outside Solvers().
	ErrUnknownSolver = errors.New("serve: unknown solver")
	// ErrBatchPanic: a query batch panicked server-side and was
	// recovered. The request itself may be well-formed, so the HTTP
	// layer reports it as a 500, never a client error.
	ErrBatchPanic = errors.New("serve: query batch panicked")
	// ErrPlanPanic: a plan execution panicked server-side and was
	// recovered (500, like ErrBatchPanic). Recovering matters beyond the
	// response code: the failed-plan persist must still run so a restart
	// cannot re-grant the budget the plan charged before dying.
	ErrPlanPanic = errors.New("serve: plan execution panicked")
)

// Config tunes the service.
type Config struct {
	// BatchWindow is how long the batcher waits after the first queued
	// request for more clients to coalesce; 0 means 250µs.
	BatchWindow time.Duration
	// MaxBatch caps the number of requests merged into one panel; 0
	// means 64.
	MaxBatch int
	// Replicates is the number of bootstrap columns solved alongside the
	// estimate for per-answer standard errors; negative disables error
	// bars, 0 means 3.
	Replicates int
	// MaxIter bounds the block solve; 0 means 400.
	MaxIter int
	// Solver selects the block solver for the estimate panel, one of
	// Solvers(): "cgls" (solver.CGLSMulti), "lsmr" (solver.LSMRMulti,
	// the paper's named solver), "normal" (solver.NormalMulti, direct
	// normal equations with bit-identical incremental refresh) or "nnls"
	// (solver.NNLSMulti, non-negative estimates); "" means "cgls".
	// Datasets may override it at create time.
	Solver string
	// StateDir, when non-empty, enables measurement-log persistence
	// under this directory: creating a dataset with a previously used
	// name loads its state back, budget accounting included.
	StateDir string
	// CheckpointEvery compacts a dataset's WAL into a checkpoint after
	// this many appended records; 0 means 64, negative disables
	// compaction.
	CheckpointEvery int
	// FS is the persistence filesystem; nil means the real one
	// (wal.OSFS). Tests inject wal.FaultFS to drive the crash-recovery
	// matrix.
	FS wal.FS
	// ReplRetain bounds the in-memory replication stream to this many
	// most-recent frames; older frames are trimmed and a follower
	// tailing below the trim floor restarts from a regenerated
	// bootstrap stream at offset zero. 0 means 2×CheckpointEvery (or
	// 128 when compaction is disabled), negative disables trimming.
	ReplRetain int
	// AuditKey is the ed25519 private key that signs audit-ledger
	// checkpoints (GET .../audit/checkpoint); nil generates an
	// ephemeral key at startup. Operators who want checkpoints
	// verifiable across restarts pass a stable key.
	AuditKey ed25519.PrivateKey
}

func (c *Config) fill() {
	if c.BatchWindow == 0 {
		c.BatchWindow = 250 * time.Microsecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Replicates == 0 {
		c.Replicates = 3
	}
	if c.Replicates < 0 {
		c.Replicates = 0
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 400
	}
	if c.Solver == "" {
		c.Solver = SolverCGLS
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.ReplRetain == 0 {
		if c.CheckpointEvery > 0 {
			c.ReplRetain = 2 * c.CheckpointEvery
		} else {
			c.ReplRetain = 128
		}
	}
	if c.ReplRetain < 0 {
		c.ReplRetain = 0 // trimming disabled: the stream keeps full history
	}
	if c.FS == nil {
		c.FS = wal.OSFS{}
	}
	if c.AuditKey == nil && c.StateDir != "" {
		// A persistent server keeps a persistent signing identity:
		// auditors pin the key (trust on first use), so rotating it on
		// every restart would make their pins useless. Best-effort — a
		// failure falls through to an ephemeral key.
		c.AuditKey = loadOrCreateAuditKey(filepath.Join(c.StateDir, "audit.key"))
	}
	if c.AuditKey == nil {
		_, priv, err := ed25519.GenerateKey(cryptorand.Reader)
		if err != nil {
			// crypto/rand never fails on supported platforms; an ephemeral
			// key is startup configuration, so treat failure as fatal.
			panic(fmt.Sprintf("serve: generating audit key: %v", err))
		}
		c.AuditKey = priv
	}
}

// loadOrCreateAuditKey reads the hex-encoded ed25519 seed at path,
// generating and persisting one (0600) when the file does not exist.
// Any failure is logged and yields nil (the caller falls back to an
// ephemeral key) — signing identity must never block serving.
func loadOrCreateAuditKey(path string) ed25519.PrivateKey {
	if data, err := os.ReadFile(path); err == nil {
		seed, derr := hex.DecodeString(strings.TrimSpace(string(data)))
		if derr != nil || len(seed) != ed25519.SeedSize {
			log.Printf("serve: audit key %s is malformed; using an ephemeral key", path)
			return nil
		}
		return ed25519.NewKeyFromSeed(seed)
	} else if !errors.Is(err, os.ErrNotExist) {
		log.Printf("serve: read audit key %s (using an ephemeral key): %v", path, err)
		return nil
	}
	seed := make([]byte, ed25519.SeedSize)
	if _, err := cryptorand.Read(seed); err != nil {
		panic(fmt.Sprintf("serve: generating audit key: %v", err))
	}
	if err := os.WriteFile(path, []byte(hex.EncodeToString(seed)+"\n"), 0o600); err != nil {
		log.Printf("serve: persist audit key %s (using an ephemeral key): %v", path, err)
		return nil
	}
	return ed25519.NewKeyFromSeed(seed)
}

// The estimate-panel solvers refreshLocked dispatches between. CGLS and
// LSMR run k right-hand sides through one MatMat/TMatMat panel pass per
// iteration (LSMR is the paper's named solver with the monotone ‖Aᵀr‖
// stopping rule, CGLS the original default); "normal" solves the
// weighted normal equations (inference.NormalEquations, extended by the
// same log-ordered fold as the iterative solvers' system) directly per
// refresh (solver.NormalMulti) — the solver whose answers depend only on
// the log, not on when refreshes ran.
const (
	SolverCGLS   = "cgls"
	SolverLSMR   = "lsmr"
	SolverNormal = "normal"
	// SolverNNLS (solver.NNLSMulti, FISTA projected gradient) constrains
	// every panel column non-negative — estimates that are counts stay
	// counts. It solves the same consolidated system as cgls/lsmr but
	// always from a cold start (see refreshLocked), and has no damped
	// form (Options.Damp is ignored, so damping+nnls is rejected at
	// create).
	SolverNNLS = "nnls"
)

// Solvers lists the estimate-panel solvers Config.Solver and the
// create-dataset endpoint accept.
func Solvers() []string { return []string{SolverCGLS, SolverLSMR, SolverNormal, SolverNNLS} }

// validSolver reports whether name is accepted ("" means the default).
func validSolver(name string) bool {
	return name == "" || name == SolverCGLS || name == SolverLSMR ||
		name == SolverNormal || name == SolverNNLS
}

// dampSolver reports whether the named solver supports Tikhonov
// damping (the serve "damping" dataset field): LSMR folds λ into its
// rotations, the normal path adds λ² to the Gram diagonal; CGLS has no
// damped form.
func dampSolver(name string) bool {
	return name == SolverLSMR || name == SolverNormal
}

// Server is the query service state: a registry of warm datasets.
type Server struct {
	cfg Config

	mu       sync.RWMutex
	datasets map[string]*Dataset
	closed   bool
}

// New returns an empty server. It panics on a Config.Solver outside
// Solvers() or a malformed Config.AuditKey — startup configuration
// errors, not runtime conditions.
func New(cfg Config) *Server {
	if !validSolver(cfg.Solver) {
		panic(fmt.Sprintf("serve: unknown solver %q (have %v)", cfg.Solver, Solvers()))
	}
	if cfg.AuditKey != nil && len(cfg.AuditKey) != ed25519.PrivateKeySize {
		panic(fmt.Sprintf("serve: audit key has %d bytes, want %d", len(cfg.AuditKey), ed25519.PrivateKeySize))
	}
	cfg.fill()
	return &Server{cfg: cfg, datasets: map[string]*Dataset{}}
}

// AuditPublicKey returns the public half of the checkpoint-signing
// key, the one clients pin to verify signed tree heads.
func (s *Server) AuditPublicKey() ed25519.PublicKey {
	return s.cfg.AuditKey.Public().(ed25519.PublicKey)
}

// Close stops every dataset's batcher. Pending queries are answered
// before shutdown; new queries fail, cache hits included.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ds := make([]*Dataset, 0, len(s.datasets))
	//lint:sorted batcher stop order is unobservable: values only collected for shutdown
	for _, d := range s.datasets {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.batch.stop()
	}
	// With the batchers drained, sync and close every dataset's WAL so a
	// clean shutdown loses nothing and releases the log files (a
	// successor process over the same state directory reopens them).
	for _, d := range ds {
		d.closePersistence()
	}
}

// measBlock is one warm measurement: the strategy, its noisy answers
// and the per-row Laplace scale.
type measBlock struct {
	m     mat.Matrix
	y     []float64
	scale float64
	// digest is inference.Digest of the canonical m, taken where the
	// block is made (prepareCommit, decodeBlock): the key under which the
	// consolidated system finds blocks that repeat a strategy.
	digest uint64
	// boot is the block's parametric-bootstrap noise — len(y)×(k−1),
	// row-major — drawn lazily (in log order) the first time a refresh
	// covers the block and reused by every later refresh of any solver,
	// warm or cold, so all of them see identical replicate right-hand
	// sides.
	boot []float64
}

// rhsPanel returns the block's rows×k right-hand-side panel: column 0
// the measured answers, columns 1..k−1 the stored bootstrap re-noisings
// — the answers re-noised at the block's own scale. Only public values
// (noisy answers, public scales) enter, so it is post-processing and
// consumes no budget.
func (b *measBlock) rhsPanel(k int) []float64 {
	yb := make([]float64, len(b.y)*k)
	for i, v := range b.y {
		yb[i*k] = v
		for j := 1; j < k; j++ {
			yb[i*k+j] = v + b.boot[i*(k-1)+(j-1)]
		}
	}
	return yb
}

// Dataset is one protected dataset's warm serving state.
type Dataset struct {
	name string
	cfg  Config
	kern *kernel.Kernel
	root *kernel.Handle
	n    int

	mu     sync.Mutex
	blocks []measBlock
	rows   int
	stale  bool
	panel  []float64 // n×k row-major estimate panel (col 0: estimate, 1..: bootstrap)
	k      int
	boot   *rand.Rand // bootstrap noise: public post-processing randomness
	work   *mat.Workspace
	solver string  // estimate-panel solver (one of Solvers())
	damp   float64 // Tikhonov λ for lsmr/normal solves (0: none)
	// gen is the measurement-log generation: bumped every time new
	// measurements land, it keys the answer cache and stamps records.
	gen uint64
	// panelSolves counts actual block solves (refreshes that ran a
	// solver), so tests can assert a cache hit performed zero of them.
	panelSolves int
	// Last panel solve's termination state, surfaced through Summary and
	// QueryResult so clients can detect a truncated (non-converged) solve.
	solveIterations int
	solveConverged  bool
	// panelRows is the measurement-log prefix (in rows) the current
	// estimate panel covers; d.rows − panelRows is the pending delta the
	// next refresh must absorb.
	panelRows int

	// fold holds the log prefix blocks[:folded], folded under the weight
	// cap foldCap into the system of the solver's family: an
	// *inference.NormalEquations for "normal", an *inference.Consolidated
	// for the iterative solvers. See foldLocked.
	fold    foldTarget
	folded  int
	foldCap float64

	// Warm-vs-cold refresh accounting, surfaced through Summary:
	// warmRefreshes reused previous-generation state (a warm-started
	// iterative solve, or a "normal" solve of an extended fold),
	// coldRefreshes started from scratch, and savedIterations is the
	// iterative solvers' estimated savings (last cold refresh's
	// iteration count minus each warm refresh's, summed).
	warmRefreshes   int
	coldRefreshes   int
	savedIterations int
	baselineIters   int // iterations of the last cold iterative refresh

	// cache memoizes answered workloads at the current generation.
	cache *panelCache
	// walPath and panelPath are the log and the advisory warm-start
	// sidecar (walstate.go). All persistence I/O goes through fs so
	// tests can inject faults.
	walPath   string
	panelPath string
	fs        wal.FS
	// wlog is the open write-ahead log (nil: no persistence); walRecs
	// counts state records since the last compaction, triggering the
	// next at Config.CheckpointEvery.
	wlog    *wal.Log
	walRecs int
	// panelDirty marks the estimate panel as changed since its last
	// sidecar write; the next commit persists it, one generation behind
	// the log (see persistPanelLocked).
	panelDirty bool
	// readOnly is the graceful-degradation latch: set (with roCause)
	// when the WAL cannot be appended, it fails further writes with
	// ErrReadOnly while queries keep serving from the warm panel.
	readOnly bool
	roCause  error

	// seed is the dataset's public noise seed (all kernel and bootstrap
	// randomness derives from it). Exposed through /v1/status so a
	// replica can be created with the same streams — that, plus the
	// replicated log, is what makes normal-mode replica answers
	// bit-identical to the primary's.
	seed uint64
	// follower marks a read replica (repl.go): writes are refused with
	// ErrNotPrimary (421 + the primary address) before any kernel
	// session exists, and state arrives only through ApplyWALStream.
	follower bool
	primary  string // the primary's address ("" on a primary)
	// repl is the in-memory replication stream followers tail (repl.go).
	repl replState
	// replErr is the sticky replication-integrity latch (audit.go): set
	// when a follower's rebuilt audit ledger diverges from the
	// primary's shipped checkpoints, surfaced through /v1/status.
	replErr error

	// audit is the append-only Merkle ledger over this dataset's
	// committed budget mutations (audit.go). auditGen / auditConsumed
	// are the watermarks the leaf-derivation rule advances: a record is
	// leaf-bearing only when it moves past them, which is what keeps
	// primary commits, follower applies and WAL replays on identical
	// trees. All three are guarded by d.mu.
	audit         *audit.Tree
	auditGen      uint64
	auditConsumed float64

	batch *batcher
}

// CreateDataset registers a synthetic dataset (dataset.Synthetic1D
// kinds) protected by a fresh kernel with the given global budget. All
// kernel randomness derives from seed.
func (s *Server) CreateDataset(name, kind string, n int, scale float64, seed uint64, epsTotal float64) (*Dataset, error) {
	return s.CreateDatasetWithOptions(name, kind, n, scale, seed, epsTotal, "", 0)
}

// CreateDatasetWithOptions is CreateDataset with a per-dataset estimate
// solver (one of Solvers(); empty uses the server default), so the
// dataset is constructed — batcher and all — already on the requested
// solver, and the per-dataset Tikhonov damping λ (the HTTP "damping"
// field): the estimate solve minimizes ‖Ax − y‖² + λ²·‖x − x₀‖², which
// steadies ill-conditioned or rank-deficient measurement logs (restored
// ones included) at the cost of a small bias. Damping requires a
// solver with a damped form ("lsmr" or "normal").
func (s *Server) CreateDatasetWithOptions(name, kind string, n int, scale float64, seed uint64, epsTotal float64, solverName string, damping float64) (*Dataset, error) {
	// !(x > 0) rather than x <= 0: NaN budgets must not reach the
	// kernel, whose accounting requires a finite positive total.
	if n <= 0 || !(epsTotal > 0) || math.IsInf(epsTotal, 0) {
		return nil, fmt.Errorf("serve: dataset needs positive domain and finite positive budget")
	}
	if !validSolver(solverName) {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownSolver, solverName, Solvers())
	}
	x := dataset.Synthetic1D(kind, n, scale, seed)
	return s.addDataset(name, x, seed, epsTotal, solverName, damping, "")
}

// addDataset constructs and registers a dataset. A non-empty primary
// address makes it a follower (read replica — see repl.go): same
// construction, persistence restore included, but writes are refused
// and the measurement log arrives through ApplyWALStream.
func (s *Server) addDataset(name string, x []float64, seed uint64, epsTotal float64, solverName string, damping float64, primary string) (*Dataset, error) {
	if solverName == "" {
		solverName = s.cfg.Solver
	}
	if math.IsNaN(damping) || math.IsInf(damping, 0) || damping < 0 {
		return nil, fmt.Errorf("serve: damping must be finite and non-negative, got %g", damping)
	}
	if damping > 0 && !dampSolver(solverName) {
		return nil, fmt.Errorf("serve: solver %q has no damped form (damping needs %q or %q)",
			solverName, SolverLSMR, SolverNormal)
	}
	kern, root := kernel.InitVectorSeeded(x, epsTotal, seed)
	d := &Dataset{
		name:     name,
		cfg:      s.cfg,
		kern:     kern,
		root:     root,
		n:        len(x),
		boot:     bootRand(seed),
		work:     mat.NewWorkspace(),
		solver:   solverName,
		damp:     damping,
		fs:       s.cfg.FS,
		seed:     seed,
		follower: primary != "",
		primary:  primary,
		audit:    audit.NewTree(),
		cache:    newPanelCache(0),
	}
	if s.cfg.StateDir != "" {
		d.walPath = walFilePath(s.cfg.StateDir, name)
		d.panelPath = panelFilePath(s.cfg.StateDir, name)
		// Restore the persisted measurement log (and its spent budget)
		// before the dataset becomes visible; persisted state that exists
		// but does not validate fails the create rather than silently
		// handing back budget that was already spent.
		if err := d.loadStateWAL(); err != nil {
			return nil, err
		}
		// Serving starts from a fresh cache at the restored generation,
		// so the replay's invalidations do not count as traffic.
		d.cache = newPanelCache(d.gen)
	}
	// Seed the replication stream from the (possibly restored) state
	// before the dataset is visible: followers that connect immediately
	// see a complete history from offset zero.
	if err := d.seedReplStream(); err != nil {
		d.closePersistence()
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		d.closePersistence()
		return nil, ErrServerClosed
	}
	if _, dup := s.datasets[name]; dup {
		s.mu.Unlock()
		d.closePersistence()
		return nil, fmt.Errorf("dataset %q: %w", name, ErrDuplicateDataset)
	}
	// Start the batcher goroutine only once registration is certain, so
	// failed creates leak nothing.
	d.batch = newBatcher(d)
	s.datasets[name] = d
	s.mu.Unlock()
	return d, nil
}

// Dataset returns a registered dataset.
func (s *Server) Dataset(name string) (*Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	return d, ok
}

// Names returns the registered dataset names, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.datasets))
	//lint:sorted key-collection loop; sort.Strings below fixes the order
	for name := range s.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Strategies lists the measurement strategies Measure accepts.
func Strategies() []string {
	return []string{"identity", "total", "h2", "hb", "privelet", "greedyh"}
}

// strategyByName builds a named data-independent strategy over domain n.
func strategyByName(name string, n int) (mat.Matrix, error) {
	switch name {
	case "identity":
		return selection.Identity(n), nil
	case "total":
		return selection.Total(n), nil
	case "h2":
		return selection.H2(n), nil
	case "hb":
		return selection.HB(n), nil
	case "privelet":
		return selection.Privelet(n), nil
	case "greedyh":
		return selection.GreedyH(n, mat.HierarchicalRanges(n, 2)), nil
	default:
		return nil, fmt.Errorf("serve: unknown strategy %q (have %v)", name, Strategies())
	}
}

// Summary is a dataset's public state.
type Summary struct {
	Name         string  `json:"name"`
	Domain       int     `json:"domain"`
	EpsTotal     float64 `json:"eps_total"`
	Consumed     float64 `json:"consumed"`
	Remaining    float64 `json:"remaining"`
	Measurements int     `json:"measurements"` // logged blocks
	MeasuredRows int     `json:"measured_rows"`
	Sessions     int     `json:"sessions"`
	Queries      int     `json:"queries_in_history"`
	// Solver is the estimate-panel solver ("cgls", "lsmr", "normal" or
	// "nnls").
	Solver string `json:"solver"`
	// SolveIterations / SolveConverged report the last panel solve (zero
	// iterations: no solve has run yet). A non-converged solve means the
	// estimate is truncated at MaxIter and answers may be off.
	SolveIterations int  `json:"solve_iterations"`
	SolveConverged  bool `json:"solve_converged"`
	// Generation is the measurement-log generation (bumped per
	// measurement landing); PanelSolves counts block solves actually run.
	Generation  uint64 `json:"generation"`
	PanelSolves int    `json:"panel_solves"`
	// Damping is the dataset's Tikhonov λ (0: plain least squares).
	Damping float64 `json:"damping"`
	// WarmRefreshes / ColdRefreshes split the panel refreshes between
	// those that reused previous-generation state (a warm-started
	// iterative solve, or a "normal" solve of a fold that was extended
	// rather than begun or redone) and those that started from scratch;
	// SavedIterations estimates the iterative
	// solver iterations the warm starts avoided (baselined against the
	// last cold refresh).
	WarmRefreshes   int `json:"warm_refreshes"`
	ColdRefreshes   int `json:"cold_refreshes"`
	SavedIterations int `json:"saved_iterations"`
	// CoveredRows is the measurement-log prefix (rows) the current
	// estimate panel covers; PendingRows is the delta the next refresh
	// must absorb.
	CoveredRows int `json:"covered_rows"`
	PendingRows int `json:"pending_rows"`
	// Cache reports the workload-answer cache counters.
	Cache CacheStats `json:"cache"`
	// ReadOnly is set after an unrecoverable persistence failure: writes
	// are refused (503) while queries keep serving from the warm panel.
	// PersistError carries the cause.
	ReadOnly     bool   `json:"read_only,omitempty"`
	PersistError string `json:"persist_error,omitempty"`
	// Seed is the dataset's public noise seed — replicas are created
	// with it so their noise streams match the primary's (repl.go).
	Seed uint64 `json:"seed"`
	// WALOffset is the end of the replication stream in stream bytes. A
	// follower is caught up when its applied offset reaches the
	// primary's WALOffset (at the same stream epoch — the epoch, being
	// per process lifetime and so nondeterministic, lives in /v1/status
	// rather than here, keeping summaries bit-reproducible).
	WALOffset int64 `json:"wal_offset"`
	// AuditSize / AuditRoot are the audit ledger's head: the number of
	// committed budget mutations and the hex Merkle root over them.
	// Deterministic given the commit history, so a follower's values
	// must equal the primary's at equal generation.
	AuditSize uint64 `json:"audit_size"`
	AuditRoot string `json:"audit_root"`
	// Follower marks a read replica; Primary is where its writes go.
	Follower bool   `json:"follower,omitempty"`
	Primary  string `json:"primary,omitempty"`
}

// Summary reports the dataset's budget and log state. It is the
// router's health-probe payload, so it must stay cheap and must not
// stall writers: everything under d.mu is scalar copies, and the
// kernel reads are O(1) — in particular the history count comes from
// kernel.HistoryLen, not History(), whose full copy would hold the
// kernel mutex for O(queries) work against every concurrent charge.
func (d *Dataset) Summary() Summary {
	d.mu.Lock()
	blocks, rows := len(d.blocks), d.rows
	solverName, damping := d.solver, d.damp
	solveIters, solveConv := d.solveIterations, d.solveConverged
	gen, solves := d.gen, d.panelSolves
	warm, cold, saved := d.warmRefreshes, d.coldRefreshes, d.savedIterations
	covered := d.panelRows
	readOnly, roCause := d.readOnly, d.roCause
	walOffset := d.repl.end
	auditSize, auditRoot := d.audit.Size(), audit.FormatHash(d.audit.Root())
	d.mu.Unlock()
	// One Consumed() read keeps the budget triple internally consistent
	// (consumed + remaining == eps_total) even while other sessions are
	// committing charges.
	consumed := d.kern.Consumed()
	return Summary{
		Name:            d.name,
		Domain:          d.n,
		EpsTotal:        d.kern.EpsTotal(),
		Consumed:        consumed,
		Remaining:       d.kern.EpsTotal() - consumed,
		Measurements:    blocks,
		MeasuredRows:    rows,
		Sessions:        d.kern.Sessions(),
		Queries:         d.kern.HistoryLen(),
		Solver:          solverName,
		SolveIterations: solveIters,
		SolveConverged:  solveConv,
		Generation:      gen,
		PanelSolves:     solves,
		Damping:         damping,
		WarmRefreshes:   warm,
		ColdRefreshes:   cold,
		SavedIterations: saved,
		CoveredRows:     covered,
		PendingRows:     rows - covered,
		Cache:           d.cache.snapshot(),
		ReadOnly:        readOnly,
		PersistError:    errText(roCause),
		Seed:            d.seed,
		WALOffset:       walOffset,
		AuditSize:       auditSize,
		AuditRoot:       auditRoot,
		Follower:        d.follower,
		Primary:         d.primary,
	}
}

// errText renders an optional error for a summary field.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Measure spends eps of the dataset's budget measuring the named
// strategy through a fresh kernel session, and adds the noisy answers
// to the warm measurement log. Concurrent Measure calls are safe: each
// runs in its own session and the kernel's accounting is linearizable.
func (d *Dataset) Measure(strategy string, eps float64) (rows int, err error) {
	rows, _, err = d.MeasureAudited(strategy, eps)
	return rows, err
}

// MeasureAudited is Measure returning also the audit-ledger receipt
// for the commit: the index and leaf hash of the entry the charge
// appended, which the client can later prove included under any
// signed checkpoint covering it.
func (d *Dataset) MeasureAudited(strategy string, eps float64) (rows int, rcpt AuditReceipt, err error) {
	m, err := strategyByName(strategy, d.n)
	if err != nil {
		return 0, AuditReceipt{}, err
	}
	// The read-only gate comes before the budget spend: a degraded
	// dataset must refuse the charge, not take it and fail to log it.
	if err := d.checkWritable(); err != nil {
		return 0, AuditReceipt{}, err
	}
	sess := d.kern.NewSession()
	y, scale, err := sess.Bind(d.root).VectorLaplace(m, eps)
	if err != nil {
		return 0, AuditReceipt{}, err
	}
	meta := commitMeta{Op: "measure:" + strategy, Session: sess.ID(), Charges: sess.Charges(), Eps: eps}
	pc := prepareCommit([]measBlock{{m: m, y: y, scale: scale}})
	d.mu.Lock()
	defer d.mu.Unlock()
	if rcpt, err = d.commitBlocksLocked(pc, meta); err != nil {
		return 0, AuditReceipt{}, err
	}
	return len(y), rcpt, nil
}

// commitBlocksLocked is the primary's commit: it frames the
// measurement-block record of newly measured blocks at the next
// generation, applies it through the one state transition
// (applyRecordLocked, walstate.go) and sinks the audit checkpoint.
// Caller holds d.mu and passes the commit prepared off the lock
// (prepareCommit): canonical blocks, already encoded and hashed, so what
// stays inside is append/bump, a small envelope, one frame checksum and
// the log write, and concurrent queries are never answered from a
// half-committed log. The receipt identifies the commit's audit leaf.
//
// A commit whose record cannot be framed (a non-finite value) is not
// applied — the log would hold state no replay or replica can rebuild.
// Its budget is spent, so the spend is recorded as a budget-restore
// record instead, and the commit fails.
func (d *Dataset) commitBlocksLocked(pc pendingCommit, meta commitMeta) (AuditReceipt, error) {
	rec, frame, err := d.frameCommitLocked(pc, meta)
	if err != nil {
		meta.Op = "commit-failed:" + meta.Op
		d.commitSpendLocked(meta)
		return AuditReceipt{}, err
	}
	_, rcpt, _ := d.applyRecordLocked(record{
		typ:        wal.TypeMeasurementBlock,
		payload:    rec,
		frame:      frame,
		blocks:     pc.blocks,
		commitment: pc.commitment,
	})
	d.auditCheckpointLocked()
	return rcpt, nil
}

// PlanResult reports one plan-mode measurement: what executed, what it
// cost, and what it added to the warm log.
type PlanResult struct {
	// Plan and Signature identify the executed registry plan (the
	// signature is rendered from the actual graph, Fig. 2 notation).
	Plan      string `json:"plan"`
	Signature string `json:"signature"`
	// Trace is the executed-operator audit trail (loops unrolled).
	Trace []string `json:"trace"`
	// Rows is the number of measurement rows appended to the warm log.
	Rows int `json:"rows"`
	// EpsCharged is the root-budget consumption attributed to this
	// request's kernel session — exactly the plan's declared epsilon for
	// every registry plan (parallel composition included).
	EpsCharged float64 `json:"eps_charged"`
	Consumed   float64 `json:"consumed"`
	Remaining  float64 `json:"remaining"`
	// Generation is the measurement-log generation after the append.
	Generation uint64 `json:"generation"`
	// AuditIndex / AuditLeaf are the audit-ledger receipt for the
	// plan's commit (see AuditReceipt).
	AuditIndex uint64 `json:"audit_index"`
	AuditLeaf  string `json:"audit_leaf"`
}

// MeasurePlan executes a Fig. 2 registry plan by name against the
// dataset through a fresh kernel session — the same Algorithm 2
// accounting path as fixed-strategy measurement — and appends every
// measurement the plan took (mapped to the root domain) to the warm
// log. params is the plan's public parameter set; the zero value works
// for every registry plan.
//
// If the plan fails mid-run (most relevantly: budget exhaustion at an
// inner operator), the budget its completed operators spent stays spent
// — the kernel's accounting is the privacy ledger and cannot be rolled
// back — but no measurements enter the log.
func (d *Dataset) MeasurePlan(name string, eps float64, params plans.Params) (PlanResult, error) {
	g, err := plans.GraphByName(name, d.n, eps, params)
	if err != nil {
		return PlanResult{}, err
	}
	// Same gate as Measure: refuse before any operator spends budget.
	if err := d.checkWritable(); err != nil {
		return PlanResult{}, err
	}
	sess := d.kern.NewSession()
	env := ops.NewEnv(sess.Bind(d.root))
	execErr := func() (err error) {
		// A panicking operator must take the same exit as an erroring one:
		// without this recover, the persist below is skipped and the
		// budget charged before the panic is re-granted after a restart.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: plan %q: %v", ErrPlanPanic, name, r)
			}
		}()
		_, err = g.ExecuteEnv(env)
		return err
	}()
	if execErr != nil {
		// The operators that completed before the failure have already
		// charged the kernel, and that spend is permanent. Persist it even
		// though no measurements land: a log stopped at the pre-failure
		// consumption would let a restarted server re-grant the spent
		// budget — the exact violation persistence exists to
		// prevent. The log carries it as one budget-restore record.
		meta := commitMeta{Op: "plan-failed:" + name, Session: sess.ID(), Charges: sess.Charges(), Eps: sess.Consumed()}
		d.mu.Lock()
		d.commitSpendLocked(meta)
		d.mu.Unlock()
		return PlanResult{}, execErr
	}
	nb := env.MS.NumBlocks()
	blocks := make([]measBlock, 0, nb)
	rows := 0
	for i := 0; i < nb; i++ {
		m, y, scale := env.MS.Block(i)
		blocks = append(blocks, measBlock{m: m, y: y, scale: scale})
		rows += len(y)
	}
	pc := prepareCommit(blocks)
	epsCharged := sess.Consumed()
	meta := commitMeta{Op: "plan:" + name, Session: sess.ID(), Charges: sess.Charges(), Eps: epsCharged}
	d.mu.Lock()
	rcpt, err := d.commitBlocksLocked(pc, meta)
	gen := d.gen
	d.mu.Unlock()
	if err != nil {
		return PlanResult{}, err
	}
	consumed := d.kern.Consumed()
	return PlanResult{
		Plan:       name,
		Signature:  g.Signature(),
		Trace:      env.Trace,
		Rows:       rows,
		EpsCharged: epsCharged,
		Consumed:   consumed,
		Remaining:  d.kern.EpsTotal() - consumed,
		Generation: gen,
		AuditIndex: rcpt.Index,
		AuditLeaf:  rcpt.Leaf,
	}, nil
}

// refreshLocked brings the estimate panel up to date with one block
// solve of the system foldLocked has extended to the end of the log:
// the "normal" solver solves the weighted normal equations directly
// (solver.NormalMulti), the iterative ones the consolidated system
// (solveConsolidatedLocked). Caller holds d.mu.
func (d *Dataset) refreshLocked() error {
	if !d.stale && d.panel != nil {
		return nil
	}
	if len(d.blocks) == 0 {
		return fmt.Errorf("dataset %q: %w", d.name, ErrNoMeasurements)
	}
	k := 1 + d.cfg.Replicates
	extended := d.foldLocked(k)
	var res solver.Result
	var warm bool
	if ne, ok := d.fold.(*inference.NormalEquations); ok {
		// The direct solve's answer depends only on the bits of G and B,
		// and an extended fold holds the bits a fresh one would, so warm
		// here means only that the fold was extended, not begun or redone.
		res, warm = solver.NormalMulti(ne.G, ne.B, k, d.damp, d.work), extended
	} else {
		res, warm = d.solveConsolidatedLocked(d.fold.(*inference.Consolidated), k)
	}
	d.panelSolves++
	if warm {
		d.warmRefreshes++
		if saved := d.baselineIters - res.Iterations; saved > 0 {
			d.savedIterations += saved
		}
	} else {
		d.coldRefreshes++
		d.baselineIters = res.Iterations
	}
	d.panel, d.k = res.X, k
	d.panelRows = d.rows
	d.panelDirty = true
	d.solveIterations, d.solveConverged = res.Iterations, res.Converged
	if !res.Converged {
		//lint:ignore lockscope rare truncation warning worth emitting at the exact solve; surfacing it to every refreshLocked caller for off-lock logging is not worth the plumbing
		log.Printf("serve: dataset %q: %s panel solve truncated at %d iterations (MaxIter %d); answers may be degraded",
			d.name, d.solver, res.Iterations, d.cfg.MaxIter)
	}
	d.stale = false
	return nil
}

// solveConsolidatedLocked solves the consolidated weighted system c
// with the iterative solver d.solver (LSMRMulti, CGLSMulti or
// NNLSMulti), cgls and lsmr warm-started from the previous generation's
// panel when one with the same shape exists — the solver then works off
// only the delta the new measurement rows introduced. It reports whether
// the solve was warm-started. Caller holds d.mu.
func (d *Dataset) solveConsolidatedLocked(c *inference.Consolidated, k int) (solver.Result, bool) {
	a, panelY, w := c.System()
	opts := solver.Options{MaxIter: d.cfg.MaxIter, Work: d.work, Damp: d.damp}
	// Warm start: the previous generation's estimate panel (possibly
	// restored from the panel sidecar) seeds the solve whenever its shape still
	// matches; a converged panel plus a small row delta then costs a few
	// iterations instead of a full re-solve. Warm and cold answers agree
	// to solver tolerance, not bitwise — the "normal" solver is the
	// bit-identical path (see the solver package docs). nnls never warm
	// starts: FISTA's stopping rule is relative to the gradient at its
	// start point, so a warm start tightens its own target and, with the
	// momentum reset, needs more iterations than the cold solve it was
	// meant to shorten.
	warm := d.solver != SolverNNLS && d.panel != nil && d.k == k && len(d.panel) == d.n*k
	var res solver.Result
	if d.solver == SolverNNLS {
		// NNLSMulti applies the row weights itself and projects every
		// FISTA iterate non-negative.
		res = solver.NNLSMulti(a, panelY, k, w, opts)
	} else {
		// Row weighting: scale matrix rows and right-hand sides alike, as
		// solver.LeastSquares does for the single-RHS path.
		av := mat.RowScaled(w, a)
		for i, wi := range w {
			for j := 0; j < k; j++ {
				panelY[i*k+j] *= wi
			}
		}
		// The TolFloor pins each warm column's convergence target to the
		// cold solve's absolute target (tol·‖Aᵀy_c‖) — without it the
		// relative rule would make the warm solve chase tol times its own
		// already-small start residual, a strictly tighter target that
		// eats the savings.
		if warm {
			opts.X0 = d.panel
			opts.TolFloor = d.coldTargets(av, panelY, k)
		}
		if d.solver == SolverLSMR {
			res = solver.LSMRMulti(av, panelY, k, opts)
		} else {
			res = solver.CGLSMulti(av, panelY, k, opts)
		}
	}
	return res, warm
}

// foldTarget is a system foldLocked extends block by block, in log
// order: inference.Consolidated or inference.NormalEquations.
type foldTarget interface {
	Fold(m mat.Matrix, digest uint64, w float64, y []float64)
}

// foldLocked extends the solver family's system to the end of the log:
// every block past the folded prefix gets its bootstrap noise (once, in
// log order) and is folded, in log order, into d.fold — for the
// iterative solvers into the group of its strategy matrix, for "normal"
// into G and B. The fold is a function of the log alone — a primary
// folding commit by commit, a restart or a follower folding a replayed
// log in one go, all hold the same floats. A block's weight depends on
// the 100× cap, which a noisier later block can lower for earlier ones;
// when the cap moves the system is refolded from the first block, which
// is what a process that saw the whole log at once would have built.
// It reports whether an existing fold was extended (false: the fold was
// begun or redone). Caller holds d.mu.
func (d *Dataset) foldLocked(k int) (extended bool) {
	maxW := d.weightCapLocked()
	extended = d.fold != nil && d.foldCap == maxW
	if !extended {
		if d.solver == SolverNormal {
			d.fold = inference.NewNormalEquations(d.n, k)
		} else {
			d.fold = inference.NewConsolidated(d.n, k)
		}
		d.folded, d.foldCap = 0, maxW
	}
	for ; d.folded < len(d.blocks); d.folded++ {
		b := &d.blocks[d.folded]
		d.ensureBootNoiseLocked(b, k)
		d.fold.Fold(b.m, b.digest, blockWeight(b.scale, maxW), b.rhsPanel(k))
	}
	return extended
}

// coldTargets returns the per-column absolute convergence targets a
// cold solve of the weighted system (av, panelY) would stop at:
// tol·‖Aᵀy_c‖, the solver's relative rule applied to the zero start's
// residual y. A warm-started refresh passes these as Options.TolFloor
// so it stops at the same absolute quality the cold path reaches and
// actually banks the iterations the warm start saves. Costs one
// TMatMat pass over the system — about half an iteration. Each
// column's floor depends only on that column of panelY, preserving
// per-column determinism. Caller holds d.mu.
func (d *Dataset) coldTargets(av mat.Matrix, panelY []float64, k int) []float64 {
	s := d.work.Get(d.n * k)
	mat.TMatMat(av, s, panelY, k)
	floors := make([]float64, k)
	for c := 0; c < k; c++ {
		var sum float64
		for i := c; i < len(s); i += k {
			sum += s[i] * s[i]
		}
		floors[c] = solver.DefaultTol * math.Sqrt(sum)
	}
	d.work.Put(s)
	return floors
}

// weightCapLocked returns the largest weight a block of the warm log
// may carry — the rule of inference.Measurements.Weights: 100× the
// smallest block weight 1/scale, so that near-exact side information
// acts as a strong constraint without destroying the solvers'
// conditioning. Caller holds d.mu.
func (d *Dataset) weightCapLocked() float64 {
	minW := math.Inf(1)
	for _, b := range d.blocks {
		if b.scale > 0 && 1/b.scale < minW {
			minW = 1 / b.scale
		}
	}
	if math.IsInf(minW, 1) {
		minW = 1
	}
	return minW * 100
}

// blockWeight is a block's inverse-noise row weight under the cap maxW:
// 1/scale, capped; scale-free blocks get the cap. It is constant within
// a block because each block has one noise scale.
func blockWeight(scale, maxW float64) float64 {
	if scale > 0 && 1/scale < maxW {
		return 1 / scale
	}
	return maxW
}

// ensureBootNoiseLocked draws the block's parametric-bootstrap noise —
// (k−1) Laplace draws per row at the block's own scale, row-major —
// exactly once, from the dataset's bootstrap stream in log order.
// Because every block's draw is a contiguous, deterministic chunk of
// the stream consumed in block order, any refresh schedule (one block
// per refresh, or several batched) and any solver yields the same noise
// per block, which is what keeps warm and cold, restarted and replica
// servers on identical replicate right-hand sides. The fold runs to the
// end of the log in block order, so the noised blocks are always a
// prefix. Caller holds d.mu.
func (d *Dataset) ensureBootNoiseLocked(b *measBlock, k int) {
	if b.boot != nil || k <= 1 {
		return
	}
	b.boot = make([]float64, len(b.y)*(k-1))
	for i := range b.boot {
		b.boot[i] = noise.Laplace(d.boot, b.scale)
	}
}

// bootRand opens a dataset's bootstrap-noise stream at its start: public
// post-processing randomness, a function of the dataset seed.
func bootRand(seed uint64) *rand.Rand { return noise.NewRand(seed ^ 0x9e3779b97f4a7c15) }

// resetDerivedLocked forgets what was derived from a log that has just
// been replaced (a follower applying a bootstrap frame): the fold and
// the position of the bootstrap stream, so the new blocks are noised and
// folded from the first one exactly as a fresh process holding them
// would. Caller holds d.mu.
func (d *Dataset) resetDerivedLocked() {
	d.boot = bootRand(d.seed)
	d.fold, d.folded = nil, 0
}

// Refresh forces the estimate panel up to date (a no-op when it is not
// stale), so callers can separate refresh cost from query cost —
// BenchmarkRefreshLogLength times exactly this.
func (d *Dataset) Refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.refreshLocked()
}

// QueryResult is the answer to one client's range workload.
type QueryResult struct {
	// Answers[i] estimates the i-th range's count.
	Answers []float64 `json:"answers"`
	// Stderr[i] is the bootstrap standard error of Answers[i] (nil when
	// replicates are disabled).
	Stderr []float64 `json:"stderr,omitempty"`
	// BatchQueries is how many queries (across all coalesced clients)
	// the answering panel carried — observability for the batching tier.
	BatchQueries int `json:"batch_queries"`
	// BatchClients is how many client requests shared the panel.
	BatchClients int `json:"batch_clients"`
	// SolveIterations / SolveConverged report the block solve behind the
	// answering panel; a non-converged solve was truncated at the
	// server's MaxIter and the answers may be degraded.
	SolveIterations int  `json:"solve_iterations"`
	SolveConverged  bool `json:"solve_converged"`
	// Cached marks an answer served from the workload cache: the same
	// workload was answered earlier at the same measurement-log
	// generation, so no batcher or panel work ran.
	Cached bool `json:"cached,omitempty"`
}

// Query answers a workload of 1-D ranges against the dataset's current
// estimate. A workload cached at the current generation is answered on the
// calling goroutine; otherwise concurrent calls are coalesced by the
// dataset's batcher into one panel product and the call blocks until
// its batch is answered. Once the batcher is stopped (Server.Close),
// every query fails with ErrBatcherStopped, cached or not.
func (d *Dataset) Query(ranges []mat.Range1D) (QueryResult, error) {
	if len(ranges) == 0 {
		return QueryResult{}, fmt.Errorf("serve: empty workload")
	}
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi < r.Lo || r.Hi >= d.n {
			return QueryResult{}, fmt.Errorf("serve: range [%d,%d] outside domain %d", r.Lo, r.Hi, d.n)
		}
	}
	if d.batch.stopped() {
		return QueryResult{}, ErrBatcherStopped
	}
	if res, ok := d.cache.get(ranges); ok {
		res.Cached = true
		return res, nil
	}
	return d.batch.submit(ranges)
}

// refreshedPanel refreshes the estimate panel if stale and returns it
// with its solve state plus the generation the panel belongs to, so an
// answer computed from it is cached only while that generation is current.
// The lock is released by defer so that a panic inside the refresh
// (assembly or block solve) unwinds with d.mu free — the batcher's
// recover keeps serving instead of deadlocking every later lock attempt
// on the dataset.
func (d *Dataset) refreshedPanel() (panel []float64, k, solveIters int, solveConv bool, gen uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.refreshLocked(); err != nil {
		return nil, 0, 0, false, 0, err
	}
	return d.panel, d.k, d.solveIterations, d.solveConverged, d.gen, nil
}

// answerBatch answers a coalesced batch of client workloads with one
// MatMat panel pass: the stacked ranges form one RangeQueries matrix,
// the estimate panel supplies 1+R columns, and each client's slice of
// the product yields its answers (column 0) and bootstrap standard
// errors (columns 1..R). Every request here already missed the cache in
// Query.
func (d *Dataset) answerBatch(reqs []*queryReq) {
	panel, k, solveIters, solveConv, gen, err := d.refreshedPanel()
	if err != nil {
		for _, r := range reqs {
			r.resp <- queryResp{err: err}
		}
		return
	}

	total := 0
	for _, r := range reqs {
		total += len(r.ranges)
	}
	all := make([]mat.Range1D, 0, total)
	for _, r := range reqs {
		all = append(all, r.ranges...)
	}
	wm := mat.RangeQueries(d.n, all)
	dst := make([]float64, total*k)
	mat.MatMat(wm, dst, panel, k)

	off := 0
	for _, r := range reqs {
		m := len(r.ranges)
		res := QueryResult{
			Answers:         make([]float64, m),
			BatchQueries:    total,
			BatchClients:    len(reqs),
			SolveIterations: solveIters,
			SolveConverged:  solveConv,
		}
		if k > 1 {
			res.Stderr = make([]float64, m)
		}
		for i := 0; i < m; i++ {
			row := dst[(off+i)*k : (off+i+1)*k]
			res.Answers[i] = row[0]
			if k > 1 {
				var ss float64
				for _, v := range row[1:] {
					dlt := v - row[0]
					ss += dlt * dlt
				}
				res.Stderr[i] = math.Sqrt(ss / float64(k-1))
			}
		}
		// Memoize without the batch metadata: the cached value is the
		// answer of this generation's panel, not of this batch. put drops
		// it if the generation moved on mid-batch.
		stored := res
		stored.BatchQueries = m
		stored.BatchClients = 1
		d.cache.put(gen, r.ranges, stored)
		r.resp <- queryResp{result: res}
		off += m
	}
}
