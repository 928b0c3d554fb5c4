package kernel

import (
	"math/rand/v2"
	"sync/atomic"
)

// This file implements the kernel's client-session layer. A Session is
// the unit of client concurrency: it owns a private RNG stream for the
// noise its Private→Public operators draw, and a per-session account of
// the root budget its queries consumed. All cross-session state (the
// transformation graph, the budget trackers, the query history) stays
// inside the Kernel behind its mutex, so any number of sessions can
// drive one kernel concurrently with linearizable Algorithm 2
// accounting.
//
// Sessions are cheap: creating one draws two words from the kernel's
// seed source (a rand/v2 PCG) to fork an independent, reproducible RNG
// stream. The root session created by Init keeps exactly the noise
// stream the caller passed in, so pre-session single-client runs replay
// bit-identically.

// Session is one client's private view of a kernel: an independent
// noise stream plus per-session consumption accounting. A Session and
// the handles bound to it must be used by one goroutine at a time;
// distinct sessions of the same kernel are safe to use concurrently.
type Session struct {
	k        *Kernel
	id       int
	rng      *rand.Rand
	consumed float64 // root-budget delta from this session's queries; guarded by k.mu
	charges  int     // count of committed budget mutations; guarded by k.mu
}

// kernelSeq distinguishes the session-seed streams of kernels created
// without an explicit seed, so concurrent kernels never share streams.
var kernelSeq atomic.Uint64

// nextKernelSeed returns a process-unique, deterministic-in-creation-
// order seed word for a kernel's session-seed source.
func nextKernelSeed() uint64 {
	return (kernelSeq.Add(1) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
}

// NewSession creates an independent client session. Its RNG stream is
// forked deterministically from the kernel's root seed source, so a
// fixed creation order reproduces fixed streams regardless of how the
// sessions' queries later interleave.
func (k *Kernel) NewSession() *Session {
	k.mu.Lock()
	defer k.mu.Unlock()
	s := &Session{k: k, id: k.sessions}
	k.sessions++
	s.rng = rand.New(rand.NewPCG(k.seedSrc.Uint64(), k.seedSrc.Uint64()))
	return s
}

// Sessions returns the number of sessions created so far (including the
// root session).
func (k *Kernel) Sessions() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sessions
}

// ID returns the session's creation index (the root session is 0).
func (s *Session) ID() int { return s.id }

// Bind returns a handle to the same data source as h, bound to this
// session: operators called through it draw noise from this session's
// stream and charge this session's account. The kernel state is
// untouched — binding is pure client-side bookkeeping.
func (s *Session) Bind(h *Handle) *Handle {
	if h.s.k != s.k {
		panic("kernel: Bind across kernels")
	}
	return &Handle{s: s, id: h.id}
}

// Consumed returns the total root-budget consumption attributed to this
// session's queries, read under the kernel lock. Summed over all
// sessions it equals Kernel.Consumed exactly (the per-query root deltas
// partition the root budget), including under partition variables,
// where a session's delta already reflects the max-of-children rule.
func (s *Session) Consumed() float64 {
	s.k.mu.Lock()
	defer s.k.mu.Unlock()
	return s.consumed
}

// Charges returns the number of budget mutations (successful charges,
// including replayed Restore spend on the root session) committed by
// this session. The audit ledger uses it to record how many kernel
// charges a single committed operator collapsed into one leaf.
func (s *Session) Charges() int {
	s.k.mu.Lock()
	defer s.k.mu.Unlock()
	return s.charges
}
