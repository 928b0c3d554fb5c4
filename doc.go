// Package repro is ektelo-go: a from-scratch Go reproduction of
// "EKTELO: A Framework for Defining Differentially-Private
// Computations" (Zhang et al., SIGMOD 2018).
//
// The library lives under internal/ (see DESIGN.md for the system
// inventory); runnable entry points are the examples/ programs,
// cmd/ektelo-bench — which regenerates every table and figure of the
// paper's evaluation — cmd/ektelo-serve, the HTTP/JSON query service,
// and cmd/ektelo-router, the cluster front door. Performance is
// measured by the bench/ module (bash bench/run.sh), end to end over
// real sockets and layer by layer.
//
// # Architecture: operator layer, session kernel, serve front end
//
// Client code expresses algorithms through internal/core/ops, the
// paper's operator API made first-class: a plan is an ops.Graph of
// typed operators (transformation, query, query selection, partition
// selection, inference, plus the I:(…) and TP[…] combinators) executed
// deterministically against a kernel handle. internal/core/plans builds
// all twenty Fig. 2 registry plans as graph constructors whose rendered
// Signature() matches the paper's notation; the classic plan functions
// are thin wrappers over the graphs.
//
// internal/kernel is the service-grade protected kernel: per-client
// Session objects own independent rand/v2 noise streams while the
// transformation graph, per-node stability/budget trackers and query
// history live behind the kernel mutex, so any number of sessions drive
// one kernel concurrently with linearizable Algorithm 2 accounting (the
// budget can never be overdrawn by a race, and per-session Consumed()
// totals partition the root budget exactly).
//
// internal/serve (cmd/ektelo-serve) is the query-service front end the
// ROADMAP's north star describes: per-dataset warm vectorized state and
// measurement logs, budget spending through per-request kernel
// sessions, and a per-dataset batcher — hardened to survive a
// panicking batch — that coalesces concurrent clients' range workloads
// into one mat.MatMat panel pass over an estimate panel solved by a
// block solver (solver.LSMRMulti, solver.CGLSMulti, solver.NNLSMulti or
// the direct normal-equations solver.NormalMulti, selected by
// Config.Solver or per dataset at create time, optionally with damping;
// column 0 the LS estimate, the rest parametric-bootstrap replicates
// that price per-answer error bars into the same solve, with the
// solve's convergence state surfaced to clients).
//
// Measurement is two-mode. Fixed strategies spend budget on a named
// matrix (identity, hb, …); plan mode (POST /v1/datasets/{name}/plan)
// executes any Fig. 2 registry plan by name — plans.GraphByName builds the ops.Graph, including the
// I:(…)/TP[…] combinator plans, from a small public parameter set
// (workload, rounds, total, shape, dim, seed) — through a per-request
// kernel session with exactly the same Algorithm 2 accounting, and
// appends every measurement the plan took to the warm log. Repeated
// query workloads are memoized by a per-dataset cache keyed by the
// measurement-log generation (a dataset's solver is fixed at create):
// a hit is served on the request goroutine before the batcher, with no
// dataset lock, zero solver iterations and zero panel work, and any new
// measurement moves the generation, dropping every cached answer.
// With Config.StateDir set, each measurement commit is made durable
// before the request returns by a per-dataset write-ahead log
// (internal/wal): one CRC32C-framed record per commit — O(delta)
// bytes — synced on every append, periodic compaction
// into a fresh log whose head is the dataset's bootstrap record stream
// (the records a resyncing follower receives), and torn-tail recovery
// (a crash mid-append truncates at the first bad frame on restart; the
// clean prefix always loads). Blocks are stored in one block codec
// (matrices canonicalized to Dense/CSR — also the warm in-memory form,
// so a replayed log is byte-identical solver input). A commit costs
// O(nnz of its block): the strategy's entries come from a walk over
// its constructors (mat.Triplets), and the block is encoded and hashed
// once, all before the dataset mutex is taken; under it remain the
// envelope, one frame checksum, the log write and the audit leaf, and
// the one frame goes to the WAL and the replication stream alike.
// The log is the dataset's state machine: one transition
// (applyRecordLocked) turns a record into state — blocks, generation,
// absolute consumed budget, audit leaf — for the primary's commit, the
// restart's replay and a follower's apply, which differ only in the
// gates around it (the primary checks writability and budget first,
// replay fails the create on any error, a follower latches a
// replication error on an audit mismatch). A commit
// the primary cannot frame is never applied; its spend is logged as a
// budget-restore record. Re-creating the dataset restores the log *and its spent
// budget* (kernel.RestoreConsumed raises to each record's absolute
// value; replay never re-grants), making restarts bit-identical and
// re-spend-proof: an acknowledged commit is on disk, so a power
// failure cannot re-grant its ε. On an unrecoverable disk
// error the dataset degrades to explicit read-only — writes fail with
// serve.ErrReadOnly (HTTP 503) while queries keep serving from the
// warm panel. The deterministic golden-session test pins the whole create →
// plan-measure → query → restart → query response stream, and a crash
// matrix (every record boundary, mid-frame tears, arbitrary bit flips)
// plus a WAL replay fuzzer pin the recovery semantics.
//
// Refreshes across measurement generations are incremental rather than
// from-scratch, through one mechanism for every solver: the blocks
// committed since the last refresh fold, in log order, into the system
// the solver family solves, and the fold is redone from the first block
// only when a new block moves the 100× weight cap. The iterative
// solvers fold into a consolidated system (inference.Consolidated):
// blocks that repeat a strategy matrix become one
// inverse-variance-weighted block, so a solve costs the number of
// distinct strategies in the log, not its length. LSMR and CGLS
// warm-start each panel solve from the previous generation's estimate
// (Options.X0) and stop at the cold solve's absolute convergence target
// (Options.TolFloor), so only the delta the new rows introduced is
// iterated on; NNLS starts cold (a warm FISTA start tightens its own
// stopping target). The "normal" solver folds into the weighted normal
// equations (inference.NormalEquations: Gram and right-hand side,
// accumulated by rank-k mat.GramUpdate passes) and solves them
// directly, so its answers are bit-identical under any refresh
// schedule. The estimate panel persists beside the log, so restarts
// warm-start too.
//
// The serve tier scales out as a cluster (internal/cluster,
// cmd/ektelo-router): a static topology of serve processes, datasets
// placed on a consistent-hash ring with one primary plus N read
// replicas, and a thin reverse-proxy router that sends writes only to
// the ring primary and fans reads across ready replicas (health
// probes, least-inflight ordering, retry-on-next for idempotent
// reads). The WAL doubles as the replication stream: primaries serve
// their per-dataset log as verbatim frames over HTTP, and follower
// processes (ektelo-serve -topology/-self) tail and apply it through
// the same strict replay path a restart uses — replicas answer
// bit-identically at equal generation, mirror but never spend budget
// (writes are refused with 421 and the primary's address before any
// kernel session exists), and a dead primary degrades its datasets to
// explicitly stale read-only serving rather than electing a second
// writer.
//
// Every plan bottoms out in internal/mat's implicit mat-vec kernels;
// those run on a shared parallel, zero-allocation compute engine (see
// the mat package docs: SetParallelism, Workspace, blocked Gram), so
// solver and inference throughput scales with cores without
// per-iteration garbage. Gram matrices of dense and CSR operands
// (mat.Gram, mat.GramUpdate) come from one blocked symmetric kernel per
// storage. On top of the single-vector kernels sits a batched multi-RHS
// tier (mat.MatMat/TMatMat over row-major panels) that the hot
// consumers ride: block Krylov solvers — solver.CGLSMulti and
// solver.LSMRMulti, the paper's §7.6
// solver run k columns at a time with per-column convergence latches,
// each column bit-identical to the k = 1 solve of its right-hand side
// on Dense/CSR operands (solver.CGLS and solver.LSMR are that k = 1
// call) — batched projected-gradient NNLS (solver.NNLSMulti, pricing a
// whole epsilon grid in one panel solve), HDMM strategy scoring
// (selection.HDMMScore), subspace power iteration
// (solver.PowerIterL), and two-column workload answering (mat.Mul2) in
// MWEM selection and the error metrics — each one pass of memory
// traffic over the matrix per k right-hand sides instead of k passes.
package repro
