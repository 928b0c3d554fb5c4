package mat

// This file implements the shared parallel compute engine behind the
// data-parallel mat-vec kernels (Dense, Sparse, VStack, Kronecker). The
// paper's cost model (§7, Tables 2-3) counts mat-vec work; the engine
// divides that work across goroutines without allocating on the steady
// state:
//
//   - A fixed crew of helper goroutines is spawned lazily and parked on
//     a wake channel; per-call coordination is a token send plus an
//     atomic work-stealing cursor, none of which allocates.
//   - Kernel invocations are described by pooled *task values whose
//     function field is a top-level func (no closure capture), so a
//     steady-state MatVec performs zero heap allocations even on the
//     parallel path.
//   - Nested parallelism is impossible by construction: the engine is
//     guarded by a TryLock, so a kernel that re-enters the engine from a
//     worker (e.g. a VStack block whose child is a large Dense) simply
//     runs serially instead of deadlocking.
//
// Parallelism is configured process-wide with SetParallelism; the
// default is runtime.GOMAXPROCS(0). Matrices whose estimated mat-vec
// work falls below parMinWork never touch the engine and keep their
// allocation-free serial loops.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
)

// parMinWork is the minimum estimated flop count before a kernel
// considers going parallel; below it, goroutine coordination costs more
// than the work saved.
const parMinWork = 1 << 15

// parGrain is the minimum estimated flop count handed out per
// work-stealing chunk.
const parGrain = 1 << 14

// maxHelpers bounds the helper crew (and must not exceed the wake
// channel capacity).
const maxHelpers = 64

var parallelism atomic.Int32

// SetParallelism sets the number of goroutines (including the caller)
// used for large mat-vec products. n <= 0 restores the default,
// runtime.GOMAXPROCS(0). It may be called at any time, including
// concurrently with mat-vecs in flight.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the current mat-vec parallelism setting.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// parallelizable reports whether a kernel with the given estimated flop
// count should attempt the parallel path.
func parallelizable(work int) bool {
	return work >= parMinWork && Parallelism() > 1
}

// task describes one data-parallel kernel invocation. The fields cover
// the needs of every kernel in the package; unused fields stay nil.
// Tasks are pooled so that steady-state dispatch allocates nothing, and
// fn is always a top-level function to avoid closure allocations.
type task struct {
	fn     func(t *task, worker, lo, hi int)
	m      Matrix      // operand matrix
	dst, x []float64   // output and input vectors
	z      []float64   // intermediate buffer (Kronecker two-phase)
	aux    [][]float64 // per-helper accumulators; helper w uses aux[w-1]
	auxLen int         // live length of each accumulator (0: no merge)
	k      int         // panel width for multi-RHS (MatMat) kernels
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

func newTask() *task { return taskPool.Get().(*task) }

// release clears the task's references (keeping the accumulator backing
// arrays for reuse) and returns it to the pool.
func (t *task) release() {
	t.fn, t.m, t.dst, t.x, t.z = nil, nil, nil, nil, nil
	t.auxLen = 0
	t.k = 0
	taskPool.Put(t)
}

// engine owns the helper crew. All per-run state is written by the
// dispatching goroutine before the wake tokens are sent, which
// establishes the happens-before edge the helpers rely on.
type engine struct {
	mu      sync.Mutex
	helpers int
	wake    chan struct{}
	done    sync.WaitGroup
	t       *task
	next    atomic.Int64
	limit   int64
	chunk   int64
	slots   atomic.Int32
	// trap holds the first panic recovered on a helper so parRun can
	// re-raise it on the calling goroutine instead of killing the
	// process.
	trap atomic.Pointer[panicValue]
}

type panicValue struct{ v any }

var eng = engine{wake: make(chan struct{}, maxHelpers)}

// parRun executes t.fn over [0, n) with chunks of at least grain units,
// using up to Parallelism() goroutines. If the engine is busy (including
// the nested case where parRun is re-entered from a helper), or the
// range is too small to split, the kernel runs serially on the calling
// goroutine as worker 0.
func parRun(t *task, n, grain int) {
	if grain < 1 {
		grain = 1
	}
	p := Parallelism()
	if w := n / grain; w < p {
		p = w
	}
	if p <= 1 || !eng.mu.TryLock() {
		runSerial(t, n)
		return
	}
	// Even if worker 0's kernel panics, the helpers must drain before the
	// engine state is released for the next run, so the Wait precedes the
	// Unlock in the deferred path too (Wait is a no-op when the normal
	// path already waited).
	defer func() {
		eng.done.Wait()
		eng.mu.Unlock()
	}()
	if p > maxHelpers+1 {
		p = maxHelpers + 1
	}
	eng.ensureHelpers(p - 1)
	if t.auxLen > 0 {
		t.ensureAux(p-1, t.auxLen)
		vec.Zero(t.dst)
	}
	chunk := n / (4 * p)
	if chunk < grain {
		chunk = grain
	}
	eng.t = t
	eng.limit = int64(n)
	eng.chunk = int64(chunk)
	eng.next.Store(0)
	eng.slots.Store(1) // the caller is worker 0
	eng.trap.Store(nil)
	eng.done.Add(p - 1)
	for i := 0; i < p-1; i++ {
		eng.wake <- struct{}{}
	}
	eng.steal(t, 0)
	eng.done.Wait()
	if pv := eng.trap.Load(); pv != nil {
		panic(pv.v)
	}
	if t.auxLen > 0 {
		for w := 0; w < p-1; w++ {
			vec.Axpy(1, t.aux[w], t.dst)
		}
	}
}

// runSerial executes the whole range on the calling goroutine.
func runSerial(t *task, n int) {
	if t.auxLen > 0 {
		vec.Zero(t.dst)
	}
	t.fn(t, 0, 0, n)
}

// ensureHelpers grows the parked helper crew to at least n goroutines.
func (e *engine) ensureHelpers(n int) {
	for e.helpers < n {
		go e.helperLoop()
		e.helpers++
	}
}

func (e *engine) helperLoop() {
	for range e.wake {
		e.helpOnce()
	}
}

// helpOnce runs one wake cycle. A panicking kernel is trapped and
// re-raised from parRun on the dispatching goroutine (a helper panic
// would otherwise kill the process, where the serial path would have
// let the caller recover); the remaining chunks are picked up by the
// other workers through the shared cursor.
func (e *engine) helpOnce() {
	defer e.done.Done()
	defer func() {
		if r := recover(); r != nil {
			e.trap.CompareAndSwap(nil, &panicValue{v: r})
		}
	}()
	t := e.t
	w := int(e.slots.Add(1)) - 1
	if t.auxLen > 0 && w-1 < len(t.aux) {
		vec.Zero(t.aux[w-1])
	}
	e.steal(t, w)
}

// steal claims chunks off the shared cursor until the range is
// exhausted.
func (e *engine) steal(t *task, worker int) {
	for {
		lo := e.next.Add(e.chunk) - e.chunk
		if lo >= e.limit {
			return
		}
		hi := lo + e.chunk
		if hi > e.limit {
			hi = e.limit
		}
		t.fn(t, worker, int(lo), int(hi))
	}
}

// ensureAux sizes n accumulators of length ln each, reusing the task's
// retained backing arrays. Helpers zero their own accumulator on wake.
func (t *task) ensureAux(n, ln int) {
	for len(t.aux) < n {
		t.aux = append(t.aux, nil)
	}
	for i := 0; i < n; i++ {
		if cap(t.aux[i]) < ln {
			t.aux[i] = make([]float64, ln)
		} else {
			t.aux[i] = t.aux[i][:ln]
		}
	}
	t.auxLen = ln
}
