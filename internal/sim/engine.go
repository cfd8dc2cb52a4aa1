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
// millions of events, so an event is nothing but an entry in the timer
// queue's arena (calendar.go): its key, its links and its payload — a
// CallFunc plus an (any, float64) argument pair. Schedule and After
// store their func() as that argument under one fixed adapter, so there
// is one payload shape. ScheduleCall/AfterCall take a pre-bound CallFunc
// and its payload directly; storing a pointer in the any slot does not
// allocate, so steady-state scheduling is allocation-free end-to-end
// once the arena has grown to the queue's peak. The engine drops its
// references to the payload the moment the event fires or its
// cancellation is reclaimed.
//
// The scheduling calls return an Event: a small value handle holding
// the entry's arena index and the event's sequence number. Sequence
// numbers are never reused and an entry never moves while it is queued,
// so Cancel acts only while the handle's event is still queued; a handle
// kept past the event's firing (its entry possibly reused by a newer
// event) cancels nothing.
//
// The timer queue is a calendar queue (calendar.go): time is cut into
// slots of one width, an event joins the bucket of its slot in a list
// sorted by (at, seq), and a pop scans forward from the current slot, so
// push and pop are O(1) on average. An event's slot is monotone in its
// time, so slot order never contradicts time order and the pop order is
// exactly (at, seq) — a total order (seq is unique), which makes pop
// order, and therefore simulation output, independent of the queue's
// shape. The bucket count follows the number of queued events and the
// width follows their spacing, re-measured when pushes start walking
// long lists or scanning empty slots; neither is a setting.
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
// with the payload that was stored with the event at scheduling time.
type CallFunc func(arg any, f64 float64)

// callFunc is the CallFunc of every Schedule/After event: its arg is the
// func() to run.
func callFunc(arg any, _ float64) { arg.(func())() }

// Event is the handle of a scheduled event: the index of its queue entry
// and its sequence number. It is a value; copies are interchangeable,
// and the zero Event cancels nothing.
type Event struct {
	eng *Engine
	i   int32
	seq uint64
}

// Seq returns the engine-unique scheduling sequence number.
func (h Event) Seq() uint64 { return h.seq }

// Cancel prevents the event from firing. It marks the queue entry, so
// the engine skips it when its time arrives, and never touches the
// queue, so it is O(1). Canceling an event that already fired, was
// already canceled, or whose entry now holds a newer event is a no-op.
func (h Event) Cancel() {
	if h.eng == nil {
		return
	}
	en := &h.eng.q.ents[h.i]
	if en.seq != h.seq || en.call == nil || en.canceled {
		return
	}
	en.canceled = true
	h.eng.liveCanceled++
}

// Engine drives a single simulation. It is not safe for concurrent use;
// one simulation runs on one goroutine (separate experiment configurations
// parallelize by running independent Engines, as internal/parallel does).
type Engine struct {
	now     Time
	seq     uint64
	q       calendar // the timer queue, popped in (at, seq) order
	fired   uint64
	stopped bool
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

// schedule stamps the event with the next seq and queues it with its
// payload.
func (e *Engine) schedule(at Time, call CallFunc, arg any, f64 float64) Event {
	// One test for the three ways a time can be wrong: NaN fails both
	// comparisons, −Inf the first, +Inf the second.
	if !(at >= e.now && at <= math.MaxFloat64) || call == nil {
		e.badSchedule(at, call)
	}
	seq := e.seq
	e.seq++
	return Event{e, e.q.push(at, seq, call, arg, f64), seq}
}

// badSchedule panics with what is wrong with a schedule call.
func (e *Engine) badSchedule(at Time, call CallFunc) {
	if call == nil {
		panic("sim: schedule with a nil CallFunc")
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", at))
	}
	panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: it always indicates a logic error in the model.
func (e *Engine) Schedule(at Time, fn func()) Event {
	return e.schedule(at, callFunc, fn, 0)
}

// After runs fn after delay d from the current time. Negative delays are
// clamped to zero.
func (e *Engine) After(d float64, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleCall runs call(arg, f64) at absolute virtual time at. The
// payload is stored in the event's queue entry, so a caller holding a
// pre-bound CallFunc schedules with zero allocations; converting a
// pointer-typed arg to any does not allocate. The engine drops its
// references to call and arg the moment the event fires or is reclaimed.
func (e *Engine) ScheduleCall(at Time, call CallFunc, arg any, f64 float64) Event {
	return e.schedule(at, call, arg, f64)
}

// AfterCall runs call(arg, f64) after delay d from the current time,
// clamping negative delays to zero — the typed, allocation-free
// counterpart of After.
func (e *Engine) AfterCall(d float64, call CallFunc, arg any, f64 float64) Event {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, call, arg, f64)
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

// feedFirst reports whether the feed's head fires before queue entry i,
// the queue's top (-1: the queue is empty). A canceled top still orders:
// it is reclaimed when its turn comes.
func (e *Engine) feedFirst(i int32) bool {
	if e.feedNext == e.feedN {
		return false
	}
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

// Step executes the single next event. It returns false when the queue is
// empty. Canceled events are skipped without advancing the clock beyond
// their timestamps.
func (e *Engine) Step() bool {
	for {
		i := e.q.top()
		if e.feedFirst(i) {
			e.fireFeed()
			return true
		}
		if i < 0 {
			return false
		}
		en := &e.q.ents[i]
		at, canceled, call, arg, f64 := en.at, en.canceled, en.call, en.arg, en.f64
		// Free the entry before running, so a callback that immediately
		// re-schedules (a ticker re-arm) reuses it.
		e.q.popTop(i)
		if canceled {
			e.liveCanceled--
			continue
		}
		e.now = at
		e.fired++
		if e.probe != nil {
			e.probe(at)
		}
		call(arg, f64)
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

// compact frees the entries of canceled events. O(n); RunUntil calls it
// on return, where laziness would otherwise strand canceled events
// indefinitely.
func (e *Engine) compact() {
	if e.liveCanceled > 0 {
		e.liveCanceled -= e.q.dropCanceled()
	}
}

// peek returns the timestamp of the next non-canceled event, queue or
// feed.
func (e *Engine) peek() (Time, bool) {
	i := e.q.top()
	for i >= 0 && e.q.ents[i].canceled {
		e.liveCanceled--
		e.q.popTop(i)
		i = e.q.top()
	}
	if e.feedFirst(i) {
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
// state: the tick wrapper closure is built once, and the entry the fired
// tick freed is the one the re-arming Schedule takes.
type Ticker struct {
	engine   *Engine
	interval float64
	fn       func()
	tick     func() // persistent wrapper, allocated once in Every
	next     Event
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

func (t *Ticker) arm() { t.next = t.engine.After(t.interval, t.tick) }

// Stop cancels future ticks. It is safe to call at any point: if the
// armed tick already fired and its entry now holds an unrelated event,
// the handle's seq no longer matches and the event is left alone.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
}
