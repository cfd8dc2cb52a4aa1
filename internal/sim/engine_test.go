package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []float64
	times := []float64{5, 1, 3, 2, 4, 0.5}
	for _, at := range times {
		at := at
		e.Schedule(at, func() { order = append(order, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("fired %d events, want %d", len(order), len(times))
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	e.Schedule(2.5, func() {
		if e.Now() != 2.5 {
			t.Errorf("Now() = %v inside event at 2.5", e.Now())
		}
	})
	e.Run()
	if e.Now() != 2.5 {
		t.Fatalf("final Now() = %v, want 2.5", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(1, func() {})
	})
	e.Run()
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling at NaN did not panic")
		}
	}()
	e.Schedule(nan(), func() {})
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	e := NewEngine()
	e.Schedule(3, func() {
		ev := e.After(-1, func() {})
		if ev.At() != 3 {
			t.Errorf("After(-1) scheduled at %v, want 3", ev.At())
		}
	})
	e.Run()
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(0.1, recurse)
		}
	}
	e.After(0.1, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("nested chain fired %d times, want 100", depth)
	}
	if got, want := e.Now(), 10.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("final time %v, want %v", got, want)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v after RunUntil(3)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("second RunUntil fired total %d, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want deadline 10", e.Now())
	}
}

func TestRunUntilAdvancesEmptyClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(7)
	if e.Now() != 7 {
		t.Fatalf("Now() = %v, want 7", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt run: %d events fired", count)
	}
	e.Run()
	if count != 10 {
		t.Fatalf("resumed Run fired total %d, want 10", count)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	ev := e.Schedule(10, func() {})
	ev.Cancel()
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5 (canceled events do not count)", e.Fired())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []float64
	tk := e.Every(1.5, func() { ticks = append(ticks, e.Now()) })
	e.Schedule(7, func() { tk.Stop() })
	e.Run()
	want := []float64{1.5, 3.0, 4.5, 6.0}
	if len(ticks) != len(want) {
		t.Fatalf("ticker fired %d times: %v", len(ticks), ticks)
	}
	for i := range want {
		if diff := ticks[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero-interval ticker did not panic")
		}
	}()
	e.Every(0, func() {})
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime on empty engine returned ok")
	}
	ev := e.Schedule(4, func() {})
	e.Schedule(6, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 4 {
		t.Fatalf("NextEventTime = %v, %v; want 4, true", at, ok)
	}
	ev.Cancel()
	if at, ok := e.NextEventTime(); !ok || at != 6 {
		t.Fatalf("NextEventTime after cancel = %v, %v; want 6, true", at, ok)
	}
}

// Property: for any set of scheduling times, execution order is sorted.
func TestOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []float64
		for _, r := range raw {
			at := float64(r) / 100
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---- Free-list / allocation-discipline tests -------------------------

func TestEventRecycledAfterFire(t *testing.T) {
	e := NewEngine()
	ev1 := e.Schedule(1, func() {})
	e.Step()
	ev2 := e.Schedule(2, func() {})
	if ev1 != ev2 {
		t.Fatal("fired event was not recycled by the next Schedule")
	}
	if ev2.Canceled() {
		t.Fatal("recycled event inherited canceled state")
	}
	if ev2.At() != 2 {
		t.Fatalf("recycled event At() = %v, want 2", ev2.At())
	}
}

func TestEventRecycledAfterCancelSkip(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() { t.Error("canceled event fired") })
	ev.Cancel()
	e.Schedule(2, func() {})
	before := len(e.free)
	e.Run()
	if got := len(e.free) - before; got != 2 {
		t.Fatalf("run reclaimed %d events into the free list, want 2", got)
	}
}

func TestSteadyStateScheduleFireAllocsNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the pool.
	e.After(1, fn)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

func TestTickerSteadyStateAllocsNothing(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Every(1, func() { ticks++ })
	e.Step() // first tick warms the pool and the wrapper closure
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick allocates %.1f objects/op, want 0", allocs)
	}
	if ticks < 1000 {
		t.Fatalf("ticker only ticked %d times", ticks)
	}
}

func TestPendingExcludesCanceled(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	for i := 1; i <= 5; i++ {
		evs = append(evs, e.Schedule(float64(i), func() {}))
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d with 2 of 5 canceled, want 3", got)
	}
	evs[1].Cancel() // double-cancel must not double-count
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after double cancel, want 3", got)
	}
}

func TestRunUntilCompactsCanceled(t *testing.T) {
	e := NewEngine()
	// Live events beyond the deadline, canceled events interleaved.
	var canceled []*Event
	for i := 0; i < 10; i++ {
		ev := e.Schedule(float64(10+i), func() {})
		if i%2 == 0 {
			canceled = append(canceled, ev)
		}
	}
	for _, ev := range canceled {
		ev.Cancel()
	}
	freeBefore := len(e.free)
	e.RunUntil(5) // stops early: no event is due
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending() = %d after early RunUntil, want 5", got)
	}
	if got := e.q.n; got != 5 {
		t.Fatalf("queue still holds %d entries after compaction, want 5", got)
	}
	if e.liveCanceled != 0 {
		t.Fatalf("liveCanceled = %d after compaction, want 0", e.liveCanceled)
	}
	if got := len(e.free) - freeBefore; got != 5 {
		t.Fatalf("compaction reclaimed %d events into the free list, want 5", got)
	}
	// The surviving events must still fire in order.
	var fired []float64
	for e.Step() {
		fired = append(fired, e.Now())
	}
	if len(fired) != 5 || !sort.Float64sAreSorted(fired) {
		t.Fatalf("post-compaction events fired wrong: %v", fired)
	}
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	e.Step()
	ev.Cancel() // fired, not yet reused: must not poison the pool
	fired := false
	e.Schedule(2, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event scheduled after stale Cancel did not fire")
	}
}

func TestTickerStopGuardsAgainstRecycledEvent(t *testing.T) {
	// The hazard: a tick fires (its Event returns to the pool), the
	// callback schedules an unrelated event (reusing that struct), then
	// stops the ticker. Without the Seq guard, Stop would cancel the
	// unrelated event through the stale handle.
	e := NewEngine()
	victimFired := false
	var tk *Ticker
	tk = e.Every(1, func() {
		e.After(0.5, func() { victimFired = true })
		tk.Stop()
	})
	e.Run()
	if !victimFired {
		t.Fatal("ticker Stop canceled an unrelated recycled event")
	}
}

func TestSeqNeverReused(t *testing.T) {
	e := NewEngine()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		ev := e.After(1, func() {})
		if seen[ev.Seq()] {
			t.Fatalf("seq %d reused", ev.Seq())
		}
		seen[ev.Seq()] = true
		e.Step()
	}
}

// ---- Typed-call events and the queue order ----------------------------

func TestScheduleCallDeliversPayload(t *testing.T) {
	e := NewEngine()
	type payload struct{ hits int }
	p := &payload{}
	var gotF64 float64
	call := func(arg any, f64 float64) {
		arg.(*payload).hits++
		gotF64 = f64
	}
	e.ScheduleCall(1, call, p, 2.5)
	e.AfterCall(2, call, p, 7.25)
	e.Run()
	if p.hits != 2 {
		t.Fatalf("typed handler fired %d times, want 2", p.hits)
	}
	if gotF64 != 7.25 {
		t.Fatalf("typed handler got f64=%v, want 7.25", gotF64)
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %v after AfterCall(2) from t=0, want 2", e.Now())
	}
}

func TestScheduleCallInterleavesFIFOWithClosures(t *testing.T) {
	e := NewEngine()
	var order []int
	rec := func(arg any, _ float64) { order = append(order, arg.(int)) }
	e.Schedule(1, func() { order = append(order, 0) })
	e.ScheduleCall(1, rec, 1, 0)
	e.Schedule(1, func() { order = append(order, 2) })
	e.ScheduleCall(1, rec, 3, 0)
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-form same-time events not FIFO: %v", order)
		}
	}
}

func TestScheduleCallSteadyStateAllocsNothing(t *testing.T) {
	e := NewEngine()
	type state struct{ fired int }
	s := &state{}
	var call CallFunc
	call = func(arg any, f64 float64) {
		st := arg.(*state)
		st.fired++
		if st.fired < 2100 {
			e.AfterCall(1, call, st, f64)
		}
	}
	e.AfterCall(1, call, s, 0.5)
	e.Step() // warm the pool
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state typed schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

func TestReleaseClearsCallPayload(t *testing.T) {
	e := NewEngine()
	p := &struct{ x int }{}
	e.ScheduleCall(1, func(any, float64) {}, p, 1)
	e.Step()
	if len(e.free) == 0 {
		t.Fatal("fired event was not reclaimed into the free list")
	}
	ev := e.free[len(e.free)-1]
	if ev.call != nil || ev.arg != nil || ev.fn != nil {
		t.Fatalf("pooled event retains payload: call set=%v arg=%v fn set=%v",
			ev.call != nil, ev.arg, ev.fn != nil)
	}
	// A canceled typed event must also shed its payload when reclaimed.
	victim := e.ScheduleCall(2, func(any, float64) {}, p, 1)
	victim.Cancel()
	e.Run()
	for i, ev := range e.free {
		if ev != nil && (ev.call != nil || ev.arg != nil) {
			t.Fatalf("pooled event %d retains canceled payload", i)
		}
	}
}

func TestCancelScheduleCall(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.ScheduleCall(1, func(any, float64) { fired = true }, nil, 0)
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled typed event fired")
	}
}

// firedKey is a fired event's (at, seq) key.
type firedKey struct {
	at  Time
	seq uint64
}

// inAtSeqOrder reports whether keys are strictly increasing in (at, seq).
func inAtSeqOrder(keys []firedKey) bool {
	for i := 1; i < len(keys); i++ {
		a, b := keys[i-1], keys[i]
		if a.at > b.at || a.at == b.at && a.seq >= b.seq {
			return false
		}
	}
	return true
}

// TestStressFiresInAtSeqOrder drives the queue through a large
// interleaved schedule/cancel/fire workload, many events sharing a
// timestamp, and checks the total (at, seq) fire order.
func TestStressFiresInAtSeqOrder(t *testing.T) {
	e := NewEngine()
	const n = 5000
	var fired []firedKey
	handles := make([]*Event, n)
	x := uint64(12345)
	next := func() uint64 { // xorshift: deterministic pseudo-random times
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range handles {
		at, seq := float64(next()%1000)/10, e.seq
		handles[i] = e.Schedule(at, func() { fired = append(fired, firedKey{at, seq}) })
	}
	canceled := 0
	for i := 0; i < n; i += 7 {
		if !handles[i].Canceled() {
			handles[i].Cancel()
			canceled++
		}
	}
	e.Run()
	if len(fired) != n-canceled {
		t.Fatalf("fired %d events, want %d", len(fired), n-canceled)
	}
	if !inAtSeqOrder(fired) {
		t.Fatal("stress: events fired out of (at, seq) order")
	}
}

// TestCompactKeepsAtSeqOrder: after an early RunUntil reclaims
// interleaved cancellations, the surviving events must still fire in
// exact (at, seq) order.
func TestCompactKeepsAtSeqOrder(t *testing.T) {
	e := NewEngine()
	const n = 1000
	var handles []*Event
	var fired []firedKey
	for i := 0; i < n; i++ {
		at := float64((i*37)%100) + 10
		seq := e.seq
		handles = append(handles, e.Schedule(at, func() { fired = append(fired, firedKey{at, seq}) }))
	}
	for i := 0; i < n; i += 3 {
		handles[i].Cancel()
	}
	e.RunUntil(5) // nothing due: pure compaction
	if e.liveCanceled != 0 {
		t.Fatalf("liveCanceled = %d after compact", e.liveCanceled)
	}
	e.Run()
	if !inAtSeqOrder(fired) {
		t.Fatal("post-compaction fire order broken")
	}
	if want := n - (n+2)/3; len(fired) != want {
		t.Fatalf("fired %d events after compaction, want %d", len(fired), want)
	}
}

func TestProbeObservesFiredEvents(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.SetProbe(func(at Time) { times = append(times, at) })
	e.After(2, func() {})
	victim := e.After(1, func() {})
	victim.Cancel()
	e.After(3, func() {})
	e.Run()
	// Canceled events are skipped, not fired, so the probe must not see
	// them; fired events arrive in time order.
	if len(times) != 2 || times[0] != 2 || times[1] != 3 {
		t.Fatalf("probe saw %v, want [2 3]", times)
	}
	e.SetProbe(nil)
	e.After(4, func() {})
	e.Run()
	if len(times) != 2 {
		t.Fatal("probe fired after removal")
	}
}

// ---- Arrival feed ----------------------------------------------------

// feedScenario drives one engine through a schedule built to collide:
// equal-timestamp arrivals, arrivals tying with an event scheduled before
// them, with Ticker ticks and with After(0) events, an event canceled from
// inside an arrival handler and compacted away, and RunUntil stopping
// mid-stream. register decides how the arrivals reach the engine; the
// returned log records every callback, probe observation and checkpoint.
func feedScenario(register func(e *Engine, times []float64, call CallFunc)) []string {
	e := NewEngine()
	var log []string
	say := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	checkpoint := func(name string) {
		at, ok := e.NextEventTime()
		say("%s: now=%v fired=%d pending=%d dead=%d next=%v/%v", name, e.Now(), e.Fired(), e.Pending(), e.liveCanceled, at, ok)
	}
	e.SetProbe(func(at Time) { say("probe %v", at) })

	e.Schedule(2, func() { say("early@2") }) // scheduled first: wins ties against arrivals
	times := []float64{1, 2, 2, 2, 3, 3, 4, 4.5, 5, 5, 6, 7, 7, 8}
	var armed *Event // the live timeout; nil once it fired or was canceled
	register(e, times, func(_ any, f64 float64) {
		i := int(f64)
		say("arrival %d @%v", i, e.Now())
		e.After(0, func() { say("after0 of %d", i) })
		if i%3 == 0 {
			armed = e.After(0.75, func() { say("timeout of %d", i); armed = nil })
		} else if i%3 == 1 && armed != nil {
			say("cancel timeout @%v", e.Now()) // leaves a dead entry in the heap
			armed.Cancel()
			armed = nil
		}
	})
	tick := e.Every(1, func() { say("tick @%v", e.Now()) })
	e.Schedule(4.5, func() { say("late@4.5") }) // scheduled after: loses the tie

	checkpoint("start")
	e.RunUntil(3.5)
	checkpoint("mid-feed")
	e.RunUntil(4.5) // arrival 7 cancels the 4.75 timeout; returning compacts it away
	checkpoint("compacted")
	e.RunUntil(6)
	checkpoint("at 6")
	tick.Stop()
	e.Run()
	checkpoint("drained")
	return log
}

func TestFeedFiresExactlyLikeScheduledArrivals(t *testing.T) {
	scheduled := feedScenario(func(e *Engine, times []float64, call CallFunc) {
		for i, at := range times {
			e.ScheduleCall(at, call, nil, float64(i))
		}
	})
	fed := feedScenario(func(e *Engine, times []float64, call CallFunc) {
		e.Feed(len(times), func(i int) Time { return times[i] }, call, nil)
	})
	if len(scheduled) < 60 {
		t.Fatalf("scenario logged only %d lines; it is not exercising the schedule", len(scheduled))
	}
	for i := range scheduled {
		if i >= len(fed) || fed[i] != scheduled[i] {
			got := "<nothing>"
			if i < len(fed) {
				got = fed[i]
			}
			t.Fatalf("line %d: feed logged %q, one ScheduleCall per arrival logged %q", i, got, scheduled[i])
		}
	}
	if len(fed) != len(scheduled) {
		t.Fatalf("feed logged %d lines, scheduled arrivals %d", len(fed), len(scheduled))
	}
}

func TestFeedCountsAsPending(t *testing.T) {
	e := NewEngine()
	times := []float64{3, 5, 9}
	var seen []int
	e.Feed(len(times), func(i int) Time { return times[i] }, func(_ any, f64 float64) {
		seen = append(seen, int(f64))
	}, nil)
	e.Schedule(4, func() {})
	if got := e.Pending(); got != 4 {
		t.Fatalf("Pending() = %d with 3 fed and 1 scheduled event, want 4", got)
	}
	if at, ok := e.NextEventTime(); !ok || at != 3 {
		t.Fatalf("NextEventTime = %v, %v; want the feed head 3, true", at, ok)
	}
	e.Step()
	if at, ok := e.NextEventTime(); !ok || at != 4 {
		t.Fatalf("NextEventTime after the first arrival = %v, %v; want 4, true", at, ok)
	}
	e.RunUntil(5)
	if got := e.Pending(); got != 1 || e.Fired() != 3 {
		t.Fatalf("after RunUntil(5): Pending() = %d, Fired() = %d; want 1, 3", got, e.Fired())
	}
	e.Run()
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 || e.Now() != 9 {
		t.Fatalf("fed events fired as %v ending at %v, want [0 1 2] ending at 9", seen, e.Now())
	}
	if _, ok := e.NextEventTime(); ok || e.Pending() != 0 {
		t.Fatal("drained engine still reports queued events")
	}
}

func TestFeedTakesTheSeqRangeOfScheduledArrivals(t *testing.T) {
	e := NewEngine()
	before := e.Schedule(1, func() {})
	e.Feed(5, func(i int) Time { return 1 }, func(any, float64) {}, nil)
	after := e.Schedule(1, func() {})
	if got := after.Seq() - before.Seq(); got != 6 {
		t.Fatalf("events either side of a 5-event feed are %d seqs apart, want 6", got)
	}
}

func TestFeedSteadyStateAllocsNothing(t *testing.T) {
	e := NewEngine()
	noop := func(any, float64) {}
	e.Feed(1<<20, func(i int) Time { return float64(i) }, func(any, float64) {
		e.AfterCall(0.5, noop, nil, 0)
	}, nil)
	e.Step() // warm the pool
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step() // an arrival
		e.Step() // the event it scheduled
	})
	if allocs != 0 {
		t.Fatalf("firing fed events allocates %.1f objects/op, want 0", allocs)
	}
}

func TestFeedRejectsMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	noop := func(any, float64) {}
	mustPanic("feed starting in the past", func() {
		e := NewEngine()
		e.RunUntil(10)
		e.Feed(1, func(int) Time { return 5 }, noop, nil)
	})
	mustPanic("feed going back in time", func() {
		e := NewEngine()
		times := []float64{1, 3, 2}
		e.Feed(len(times), func(i int) Time { return times[i] }, noop, nil)
		e.Run()
	})
	mustPanic("feed at NaN", func() {
		e := NewEngine()
		e.Feed(1, func(int) Time { return math.NaN() }, noop, nil)
	})
	mustPanic("second feed while the first is live", func() {
		e := NewEngine()
		e.Feed(2, func(i int) Time { return float64(i) }, noop, nil)
		e.Step()
		e.Feed(1, func(int) Time { return 9 }, noop, nil)
	})
	// A drained feed may be followed by another.
	e := NewEngine()
	e.Feed(1, func(int) Time { return 1 }, noop, nil)
	e.Run()
	e.Feed(1, func(int) Time { return 2 }, noop, nil)
	e.Run()
	if e.Fired() != 2 || e.Now() != 2 {
		t.Fatalf("two consecutive feeds fired %d events ending at %v, want 2 at 2", e.Fired(), e.Now())
	}
}
