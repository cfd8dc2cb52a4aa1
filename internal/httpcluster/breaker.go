package httpcluster

import (
	"sync/atomic"
	"time"
)

// Per-node circuit breakers for the master's dispatch path, replacing
// the fixed failHoldDown constant. The breaker serves the same purpose
// the paper's sub-second switch failure detection does — keep placement
// away from a node that stopped answering — with the three-state
// protocol production load balancers use:
//
//	closed ──(one failed dispatch or poll)──▶ open
//	open ──(OpenFor elapsed)──▶ half-open
//	half-open ──(the one probe succeeds, or a poll does)──▶ closed
//	half-open ──(the probe or a poll fails)──▶ open (hold-down restarts)
//
// Everything is per-slot atomics — the request path's Allow/Acquire
// reads are lock-free and allocation-free, preserving the /req fast
// path's 0-alloc contract.

// Breaker states.
const (
	breakerClosed int32 = iota
	breakerHalfOpen
	breakerOpen
)

// BreakerConfig tunes the per-node circuit breakers.
type BreakerConfig struct {
	// OpenFor is how long an open circuit excludes its node from
	// placement before the half-open probe is allowed (default
	// DefaultOpenFor — the old failHoldDown constant).
	OpenFor time.Duration
}

// DefaultOpenFor is the default open-state hold-down, the value of the
// fixed failHoldDown constant it replaces.
const DefaultOpenFor = 2 * time.Second

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.OpenFor <= 0 {
		c.OpenFor = DefaultOpenFor
	}
	return c
}

// breakerSlot is one node's breaker state. All fields are atomics; the
// slot is embedded by value in the set's slice so per-node state costs
// no pointer chase.
type breakerSlot struct {
	state    atomic.Int32
	openedAt atomic.Int64 // UnixNano of the last closed/half-open→open transition
	probes   atomic.Int32 // in-flight half-open probes (0 or 1)
	opens    atomic.Int64 // cumulative open transitions (metrics)
}

// breakerSet is the per-node breaker array for one master.
type breakerSet struct {
	cfg   BreakerConfig
	slots []breakerSlot
}

func newBreakerSet(n int, cfg BreakerConfig) *breakerSet {
	return &breakerSet{cfg: cfg.withDefaults(), slots: make([]breakerSlot, n)}
}

// State returns node id's current breaker state (for metrics/tests).
func (s *breakerSet) State(id int) int32 { return s.slots[id].state.Load() }

// Opens returns node id's cumulative open-transition count.
func (s *breakerSet) Opens(id int) int64 { return s.slots[id].opens.Load() }

// open transitions a slot to open at now, from whatever state it is in.
func (s *breakerSet) open(b *breakerSlot, now int64) {
	b.openedAt.Store(now)
	if b.state.Swap(breakerOpen) != breakerOpen {
		b.opens.Add(1)
	}
}

// close resets a slot to closed.
func (s *breakerSet) close(b *breakerSlot) {
	b.state.Store(breakerClosed)
	b.probes.Store(0)
}

// maybeHalfOpen transitions an expired open circuit to half-open and
// returns the post-transition state.
func (s *breakerSet) maybeHalfOpen(b *breakerSlot, now int64) int32 {
	st := b.state.Load()
	if st != breakerOpen {
		return st
	}
	if now-b.openedAt.Load() < int64(s.cfg.OpenFor) {
		return breakerOpen
	}
	if b.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
		b.probes.Store(0)
	}
	return b.state.Load()
}

// Allow reports whether node id may be offered to the policy as a
// placement candidate at wall time now (UnixNano): closed circuits
// always, open circuits never, half-open circuits only while the probe
// slot is free. Read-only apart from the open→half-open transition.
func (s *breakerSet) Allow(id int, now int64) bool {
	b := &s.slots[id]
	switch s.maybeHalfOpen(b, now) {
	case breakerClosed:
		return true
	case breakerOpen:
		return false
	default:
		return b.probes.Load() == 0
	}
}

// Acquire begins one dispatch to node id, claiming the probe slot when
// the circuit is half-open. A false return means the node must not be
// used (open, or the probe already in flight); a true return must be
// paired with exactly one Release.
func (s *breakerSet) Acquire(id int, now int64) bool {
	b := &s.slots[id]
	switch s.maybeHalfOpen(b, now) {
	case breakerClosed:
		return true
	case breakerOpen:
		return false
	default:
		return b.probes.CompareAndSwap(0, 1)
	}
}

// Release reports the outcome of an Acquired dispatch at wall time now:
// a failure opens (or, for a probe, reopens) the circuit; a successful
// probe closes it.
func (s *breakerSet) Release(id int, ok bool, now int64) {
	b := &s.slots[id]
	if b.state.Load() == breakerHalfOpen {
		b.probes.Store(0)
		if ok {
			s.close(b)
			return
		}
	}
	if !ok {
		s.open(b, now)
	}
}

// PollSuccess records a successful /load fetch: strong evidence the node
// answers again, so the circuit closes outright — the behavior of the
// old hold-down, which a successful poll cleared immediately.
func (s *breakerSet) PollSuccess(id int) {
	s.close(&s.slots[id])
}

// PollFailure records a failed /load fetch at wall time now: it opens
// the circuit (restarting the hold-down of a half-open one) without
// touching the probe slot, which the poll never Acquired.
func (s *breakerSet) PollFailure(id int, now int64) {
	s.open(&s.slots[id], now)
}
