// Package sim implements the discrete-event simulation engine underlying
// the cluster simulator.
//
// The engine is a classic event-set design: callbacks are scheduled at
// absolute virtual times and executed in non-decreasing time order. Events
// scheduled for the same instant run in FIFO order of scheduling, which
// keeps simulations deterministic. Virtual time is a float64 measured in
// seconds; it has no relation to wall-clock time, so a simulated 4-hour
// trace replay can run in milliseconds.
//
// Allocation discipline. Steady-state simulations schedule and fire
// millions of events, so the engine recycles Event structs through a
// free list: an event returns to the pool the moment it fires (or is
// skipped after cancellation) and the next Schedule reuses it. The
// consequence is an ownership rule — an *Event handle is valid only
// until the event fires or its cancellation is reclaimed; keeping a
// handle beyond that and calling Cancel on it is a logic error (the
// struct may already represent a different scheduled event). Code that
// must cancel "whatever I armed last, unless it already fired" should
// remember the event's Seq and compare before canceling, as Ticker does.
//
// Schedule and After take a plain func() and therefore usually cost one
// closure allocation at the call site. Hot callers that fire the same
// handler millions of times (a node's CPU-burst completion, say) use the
// typed form instead: ScheduleCall/AfterCall store a pre-bound CallFunc
// plus its (pointer, float64) payload directly in the recycled Event
// struct, so steady-state scheduling is allocation-free end-to-end. The
// payload is owned by the engine only until the event fires; release
// clears it so pooled Events never pin caller state.
//
// The timer queue is a calendar queue (calendar.go): time is cut into
// slots of one width, an event joins the bucket of its slot in a list
// sorted by (at, seq), and a pop scans forward from the current slot, so
// push and pop are O(1) on average. An event's slot is monotone in its
// time, so slot order never contradicts time order and the pop order is
// exactly (at, seq) — a total order (seq is unique), which makes pop
// order, and therefore simulation output, independent of the queue's
// shape. The bucket count follows the number of queued events and the
// width follows their spacing; neither is a setting.
//
// A workload known in advance — a trace's arrivals — does not go through
// the queue at all. Feed registers it as a time-sorted stream that Step
// merges with the queue under the same (at, seq) order, so the queue
// holds only the in-flight work the model schedules as it runs.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// CallFunc is the typed-event callback form: a handler bound once by the
// caller (typically a method value stored in a struct field) invoked
// with the payload that was stored in the Event at scheduling time.
type CallFunc func(arg any, f64 float64)

// Event is a scheduled callback. Cancel marks the event so the engine
// skips it when its time arrives; the engine never touches the queue on
// cancellation, so Cancel is O(1).
type Event struct {
	eng *Engine
	at  Time
	seq uint64
	// queued is true from push until the event leaves the queue (fired
	// or reclaimed after cancellation): what Cancel checks to ignore a
	// handle whose event is gone.
	queued   bool
	canceled bool
	// Exactly one of fn / call is set: fn for the closure form
	// (Schedule/After), call+arg+f64 for the typed allocation-free form
	// (ScheduleCall/AfterCall).
	fn   func()
	call CallFunc
	arg  any
	f64  float64
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Seq returns the engine-unique scheduling sequence number. Sequence
// numbers are never reused, so a caller that retains a handle past the
// event's firing can detect recycling by comparing the Seq it observed
// at scheduling time with the handle's current value.
func (e *Event) Seq() uint64 { return e.seq }

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e.canceled || !e.queued {
		return
	}
	e.canceled = true
	e.eng.liveCanceled++
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Engine drives a single simulation. It is not safe for concurrent use;
// one simulation runs on one goroutine (separate experiment configurations
// parallelize by running independent Engines, as internal/parallel does).
type Engine struct {
	now     Time
	seq     uint64
	q       calendar // the timer queue, popped in (at, seq) order
	fired   uint64
	stopped bool
	// free is the Event free list; fired and reclaimed-canceled events
	// are recycled here so steady-state scheduling allocates nothing.
	free []*Event
	// liveCanceled counts canceled events still sitting in the queue, so
	// Pending can report live events without scanning.
	liveCanceled int
	// probe, when non-nil, observes every fired event (see SetProbe).
	probe func(at Time)
	// feed is the registered pre-sorted event stream (see Feed); events
	// feedNext..feedN−1 have not fired, the next one at feedAt.
	feed     func(i int) Time
	feedCall CallFunc
	feedArg  any
	feedNext int
	feedN    int
	feedAt   Time
	feedSeq  uint64 // seq of feed event 0; event i holds feedSeq+i
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, a useful progress
// and cost metric for large simulations.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live (non-canceled) events still queued,
// un-fired feed events included.
func (e *Engine) Pending() int { return e.q.n - e.liveCanceled + e.feedN - e.feedNext }

// schedule pops a recycled Event (or allocates the pool's next one),
// stamps it with (at, seq) and pushes it onto the timer queue. The
// caller fills in the callback fields; the queue never reads them.
func (e *Engine) schedule(at Time) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", at))
	}
	if len(e.free) == 0 {
		e.refill()
	}
	n := len(e.free)
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	ev.canceled = false
	ev.at, ev.seq = at, e.seq
	e.seq++
	e.q.push(ev)
	return ev
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: it always indicates a logic error in the model.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := e.schedule(at)
	ev.fn = fn
	return ev
}

// After runs fn after delay d from the current time. Negative delays are
// clamped to zero.
func (e *Engine) After(d float64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleCall runs call(arg, f64) at absolute virtual time at. The
// payload is stored in the recycled Event struct, so a caller holding a
// pre-bound CallFunc schedules with zero allocations; converting a
// pointer-typed arg to any does not allocate. The engine drops its
// references to call and arg the moment the event fires or is reclaimed.
func (e *Engine) ScheduleCall(at Time, call CallFunc, arg any, f64 float64) *Event {
	ev := e.schedule(at)
	ev.call, ev.arg, ev.f64 = call, arg, f64
	return ev
}

// AfterCall runs call(arg, f64) after delay d from the current time,
// clamping negative delays to zero — the typed, allocation-free
// counterpart of After.
func (e *Engine) AfterCall(d float64, call CallFunc, arg any, f64 float64) *Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleCall(e.now+d, call, arg, f64)
}

// Feed registers n events known in advance: event i fires call(arg,
// float64(i)) at time at(i), and at must be non-decreasing in i. The
// events take the next n sequence numbers, exactly as n ScheduleCall
// calls made here would, so they keep that place in the FIFO order of
// equal-time events: after everything scheduled before Feed, in index
// order among themselves, before anything scheduled later. They never
// enter the queue — Step merges the stream's head with the queue's top —
// and cannot be canceled. One feed at a time: registering while events
// of a previous feed are still un-fired panics.
func (e *Engine) Feed(n int, at func(i int) Time, call CallFunc, arg any) {
	if e.feedNext < e.feedN {
		panic("sim: Feed while a previous feed has un-fired events")
	}
	if n <= 0 {
		return
	}
	e.feed, e.feedCall, e.feedArg = at, call, arg
	e.feedNext, e.feedN = 0, n
	e.feedSeq = e.seq
	e.seq += uint64(n)
	e.feedAt = e.feedTime(0, e.now)
}

// feedTime reads feed event i's timestamp and checks it against the
// time it may not precede (the clock for event 0, event i−1 after).
func (e *Engine) feedTime(i int, floor Time) Time {
	at := e.feed(i)
	if !(at >= floor) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: feed event %d at %v, want finite and not before %v", i, at, floor))
	}
	return at
}

// feedFirst reports whether the feed's head fires before the queue's top
// (a canceled top still orders: it is reclaimed when its turn comes).
func (e *Engine) feedFirst() bool {
	if e.feedNext == e.feedN {
		return false
	}
	i := e.q.top()
	if i < 0 {
		return true
	}
	top := &e.q.ents[i]
	if e.feedAt != top.at {
		return e.feedAt < top.at
	}
	return e.feedSeq+uint64(e.feedNext) < top.seq
}

// fireFeed executes the feed's head event and advances the stream.
func (e *Engine) fireFeed() {
	i, at := e.feedNext, e.feedAt
	call, arg := e.feedCall, e.feedArg
	e.feedNext++
	if e.feedNext < e.feedN {
		e.feedAt = e.feedTime(e.feedNext, at)
	} else {
		e.feed, e.feedCall, e.feedArg = nil, nil, nil
	}
	e.now = at
	e.fired++
	if e.probe != nil {
		e.probe(at)
	}
	call(arg, float64(i))
}

// eventSlab is the pool refill batch. Events are carved from slabs of
// this many structs, so a cold engine scheduling a burst of events costs
// one allocation per slab rather than one per event. Slab memory is
// retained by the free list for the engine's lifetime — exactly the
// lifetime the recycled events already had.
const eventSlab = 64

// refill grows the free list by one slab of events.
func (e *Engine) refill() {
	slab := make([]Event, eventSlab)
	if cap(e.free) < len(e.free)+eventSlab {
		grown := make([]*Event, len(e.free), len(e.free)+eventSlab)
		copy(grown, e.free)
		e.free = grown
	}
	for i := range slab {
		slab[i].eng = e
		e.free = append(e.free, &slab[i])
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetProbe installs an observability hook invoked with each fired
// event's timestamp immediately before its callback runs — the
// engine-level tap for event-rate meters and virtual-time progress
// gauges. A nil fn removes the hook. The disabled path costs one
// branch per event and no allocations (pinned by
// BenchmarkEngineScheduleFire); the hook itself must not allocate if
// that property is to survive with probing enabled.
func (e *Engine) SetProbe(fn func(at Time)) { e.probe = fn }

// release returns a popped event to the free list. Callback and payload
// references are dropped immediately so captured state is collectable
// even while the struct waits in the pool.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.call = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Step executes the single next event. It returns false when the queue is
// empty. Canceled events are skipped without advancing the clock beyond
// their timestamps.
func (e *Engine) Step() bool {
	for {
		if e.feedFirst() {
			e.fireFeed()
			return true
		}
		if e.q.n == 0 {
			return false
		}
		ev := e.q.pop()
		if ev.canceled {
			e.liveCanceled--
			e.release(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		if e.probe != nil {
			e.probe(ev.at)
		}
		fn, call, arg, f64 := ev.fn, ev.call, ev.arg, ev.f64
		// Recycle before running so a callback that immediately
		// re-schedules (a ticker re-arm) reuses this very struct.
		e.release(ev)
		if fn != nil {
			fn()
		} else {
			call(arg, f64)
		}
		return true
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if the simulation has not already passed it). Events
// scheduled beyond the deadline remain queued; canceled events are
// compacted out of the queue on return, so a run that stops early does
// not strand them until the next full drain.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.compact()
}

// compact reclaims canceled events from the queue into the free list.
// O(n); RunUntil calls it on return, where laziness would otherwise
// strand canceled events indefinitely.
func (e *Engine) compact() {
	if e.liveCanceled == 0 {
		return
	}
	e.q.dropCanceled(func(ev *Event) {
		e.liveCanceled--
		e.release(ev)
	})
}

// peek returns the timestamp of the next non-canceled event, queue or
// feed.
func (e *Engine) peek() (Time, bool) {
	i := e.q.top()
	for i >= 0 && e.q.ents[i].ev.canceled {
		e.liveCanceled--
		e.release(e.q.pop())
		i = e.q.top()
	}
	if e.feedFirst() {
		return e.feedAt, true
	}
	if i >= 0 {
		return e.q.ents[i].at, true
	}
	return 0, false
}

// NextEventTime exposes peek for callers that interleave simulation with
// external control, e.g. the experiment harness's warm-up logic.
func (e *Engine) NextEventTime() (Time, bool) { return e.peek() }

// Ticker invokes fn every interval until canceled, a convenience for
// periodic activities such as load-information refresh and the BSD
// priority recomputation. The re-arm path allocates nothing in steady
// state: the tick wrapper closure is built once, and the engine's free
// list hands the fired event straight back to the re-arming Schedule.
type Ticker struct {
	engine   *Engine
	interval float64
	fn       func()
	tick     func() // persistent wrapper, allocated once in Every
	next     *Event
	nextSeq  uint64 // Seq of next at arm time, guards against recycling
	stopped  bool
}

// Every schedules fn to run every interval seconds, first at now+interval.
// It panics if interval is not positive: a zero-period ticker would wedge
// virtual time.
func (e *Engine) Every(interval float64, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.next = t.engine.After(t.interval, t.tick)
	t.nextSeq = t.next.seq
}

// Stop cancels future ticks. The Seq comparison makes Stop safe to call
// at any point: if the armed event already fired and its struct was
// recycled for an unrelated event, the stale handle is left alone.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.next != nil && t.next.seq == t.nextSeq {
		t.next.Cancel()
	}
	t.next = nil
}
