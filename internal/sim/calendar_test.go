package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// ---- Differential order test ------------------------------------------
//
// orderScript replays one seeded random schedule through an engine and
// logs every fire and checkpoint. Its decisions depend only on its own
// RNG and on the order events fire in, so two engines that fire in the
// same order produce the same log, line for line.

// orderEngine is what the script needs from an engine: the Engine under
// test and the reference below both provide it.
type orderEngine interface {
	now() Time
	schedule(at Time, id int)
	cancel(id int)
	feed(times []Time, id0 int)
	step() bool
	runUntil(deadline Time)
	next() (Time, bool)
	pending() int
}

type orderScript struct {
	eng    orderEngine
	rng    *rand.Rand
	log    []string
	nextID int
	live   []int       // near ids scheduled and neither fired nor canceled
	at     map[int]int // id → index in live
	feed   [2]int      // ids [feed[0], feed[1]) came from the latest feed
	grow   bool        // population phase: growing toward hi, or draining
	tiny   bool        // phase of sub-nanosecond gaps (a tiny slot width)
}

// Population bounds of the grow/drain phases: wide enough that the
// calendar resizes up from minBuckets to 1 024 buckets and back down.
// Past orderEvents events, fires schedule no children, so the final
// drain ends.
const orderLo, orderHi, orderEvents = 8, 1500, 40000

func newOrderScript(seed int64, eng orderEngine) *orderScript {
	return &orderScript{eng: eng, rng: rand.New(rand.NewSource(seed)), at: map[int]int{}, grow: true}
}

func (d *orderScript) say(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

func (d *orderScript) track(id int) {
	d.at[id] = len(d.live)
	d.live = append(d.live, id)
}

func (d *orderScript) untrack(id int) {
	i, ok := d.at[id]
	if !ok {
		return
	}
	last := d.live[len(d.live)-1]
	d.live[i] = last
	d.at[last] = i
	d.live = d.live[:len(d.live)-1]
	delete(d.at, id)
}

// delay draws a scheduling delay: zero (an After(0) chain), a tie on a
// 1 ms grid, an exponential gap, or far future — the FCFS discipline's
// 3 600 s quantum, or the clock pushed out to about 1e9 s. Far events
// stay pending until the final drain, so they do not count toward the
// population the phases steer.
func (d *orderScript) delay() (dt float64, far bool) {
	switch u := d.rng.Float64(); {
	case d.tiny && u < 0.95:
		return float64(d.rng.Intn(8)) * 1e-12, false
	case u < 0.15:
		return 0, false
	case u < 0.45:
		return float64(d.rng.Intn(4)) * 1e-3, false
	case u < 0.93:
		return 1e-3 * d.rng.ExpFloat64(), false
	case u < 0.97:
		return 3600, true
	default:
		return 1e9 + d.rng.Float64(), true
	}
}

// scheduleIn schedules one event after a drawn delay.
func (d *orderScript) scheduleIn() {
	dt, far := d.delay()
	id := d.nextID
	d.nextID++
	if !far {
		d.track(id)
	}
	d.eng.schedule(d.eng.now()+dt, id)
}

// fire is every event's callback.
func (d *orderScript) fire(id int) {
	d.say("fire %d @%v", id, d.eng.now())
	d.untrack(id)
	switch n := len(d.live); {
	case d.grow && n >= orderHi:
		d.grow = false
	case !d.grow && n <= orderLo:
		d.grow = true
		d.tiny = !d.tiny
	}
	children := d.rng.Intn(2) // drain: half a child per fire
	if d.grow {
		children = 1 + d.rng.Intn(2)
	}
	if d.nextID >= orderEvents {
		children = 0
	}
	for range children {
		d.scheduleIn()
	}
	if len(d.live) > 0 && d.rng.Float64() < 0.1 {
		d.cancelOne()
	}
}

func (d *orderScript) cancelOne() {
	id := d.live[d.rng.Intn(len(d.live))]
	if d.fed(id) {
		return // feed events cannot be canceled
	}
	d.untrack(id)
	d.eng.cancel(id)
	d.say("cancel %d", id)
}

func (d *orderScript) checkpoint(name string) {
	at, ok := d.eng.next()
	d.say("%s: now=%v pending=%d next=%v/%v", name, d.eng.now(), d.eng.pending(), at, ok)
}

// run drives rounds of feeds, outside schedules and cancels, steps and
// RunUntil calls, then drains the engine.
func (d *orderScript) run(rounds int) {
	for range 4 {
		d.scheduleIn()
	}
	for r := range rounds {
		now := d.eng.now()
		if d.eng.pending() == 0 || d.feedDrained() {
			// Arrivals from just after now, ties among them included;
			// their handlers push below a top the feed overtook.
			n := 1 + d.rng.Intn(40)
			times := make([]Time, n)
			for i := range times {
				times[i] = now + float64(d.rng.Intn(50))*1e-4
			}
			sort.Float64s(times)
			id0 := d.nextID
			d.nextID += n
			for i := range n {
				d.track(id0 + i)
			}
			d.feed = [2]int{id0, d.nextID}
			d.eng.feed(times, id0)
		}
		for range d.rng.Intn(3) {
			if len(d.live) > 0 {
				d.cancelOne()
			}
		}
		if d.rng.Intn(2) == 0 {
			for range d.rng.Intn(200) {
				if !d.eng.step() {
					break
				}
			}
		} else {
			// Often stops short of the top; the push after it then lands
			// below the scan position, at the clock RunUntil moved to.
			d.eng.runUntil(now + 2e-3*d.rng.ExpFloat64())
			d.scheduleIn()
		}
		d.checkpoint(fmt.Sprintf("round %d", r))
	}
	for d.eng.step() {
	}
	d.checkpoint("drained")
}

func (d *orderScript) fed(id int) bool { return d.feed[0] <= id && id < d.feed[1] }

func (d *orderScript) feedDrained() bool {
	for _, id := range d.live {
		if d.fed(id) {
			return false
		}
	}
	return true
}

// engineOrder runs the script on an Engine and records which calendar
// paths the schedule reached.
type engineOrder struct {
	e       *Engine
	d       *orderScript
	handles map[int]*Event
	call    CallFunc
	cov     *calendarCoverage
}

// calendarCoverage counts the calendar paths a schedule reached.
type calendarCoverage struct {
	maxBuckets, minBuckets int // bucket counts seen (minBuckets after the peak)
	belowCur               int // pushes below the scan position
	clamped                int // pushes whose slot was capped at maxSlot
}

func newEngineOrder(cov *calendarCoverage) *engineOrder {
	o := &engineOrder{e: NewEngine(), handles: map[int]*Event{}, cov: cov}
	o.call = func(_ any, f64 float64) {
		id := int(f64)
		delete(o.handles, id)
		o.d.fire(id)
	}
	return o
}

func (o *engineOrder) now() Time { return o.e.Now() }

func (o *engineOrder) schedule(at Time, id int) {
	q := &o.e.q
	if q.buckets != nil && q.slot(at) < q.cur {
		o.cov.belowCur++
	}
	if q.buckets != nil && q.slot(at) == maxSlot {
		o.cov.clamped++
	}
	if id%2 == 0 {
		o.handles[id] = o.e.ScheduleCall(at, o.call, nil, float64(id))
	} else {
		o.handles[id] = o.e.Schedule(at, func() { o.call(nil, float64(id)) })
	}
	o.observe()
}

func (o *engineOrder) cancel(id int) {
	o.handles[id].Cancel()
	delete(o.handles, id)
}

func (o *engineOrder) feed(times []Time, id0 int) {
	o.e.Feed(len(times), func(i int) Time { return times[i] }, func(_ any, f64 float64) {
		o.d.fire(id0 + int(f64))
	}, nil)
}

func (o *engineOrder) step() bool {
	ok := o.e.Step()
	o.observe()
	return ok
}

func (o *engineOrder) observe() {
	c, nb := o.cov, len(o.e.q.buckets)
	if nb > c.maxBuckets {
		c.maxBuckets, c.minBuckets = nb, nb
	}
	c.minBuckets = min(c.minBuckets, nb)
}

func (o *engineOrder) runUntil(deadline Time) { o.e.RunUntil(deadline) }
func (o *engineOrder) next() (Time, bool)     { return o.e.NextEventTime() }
func (o *engineOrder) pending() int           { return o.e.Pending() }

// refOrder is the order oracle: the pending events in a slice kept
// sorted by (at, seq), each step firing the first. A feed is its events
// scheduled back to back, which is the contract Feed documents.
type refOrder struct {
	d    *orderScript
	t    Time
	seq  uint64
	evs  []refEvent
	dead map[int]bool
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refOrder) now() Time { return r.t }

func (r *refOrder) schedule(at Time, id int) {
	ev := refEvent{at, r.seq, id}
	r.seq++
	i := sort.Search(len(r.evs), func(i int) bool {
		return r.evs[i].at > at || r.evs[i].at == at && r.evs[i].seq > ev.seq
	})
	r.evs = slices.Insert(r.evs, i, ev)
}

func (r *refOrder) cancel(id int) { r.dead[id] = true }

func (r *refOrder) feed(times []Time, id0 int) {
	for i, at := range times {
		r.schedule(at, id0+i)
	}
}

// skipDead drops canceled events from the front.
func (r *refOrder) skipDead() {
	for len(r.evs) > 0 && r.dead[r.evs[0].id] {
		r.evs = r.evs[1:]
	}
}

func (r *refOrder) step() bool {
	r.skipDead()
	if len(r.evs) == 0 {
		return false
	}
	ev := r.evs[0]
	r.evs = r.evs[1:]
	r.t = ev.at
	r.d.fire(ev.id)
	return true
}

func (r *refOrder) next() (Time, bool) {
	r.skipDead()
	if len(r.evs) == 0 {
		return 0, false
	}
	return r.evs[0].at, true
}

func (r *refOrder) runUntil(deadline Time) {
	for {
		at, ok := r.next()
		if !ok || at > deadline {
			break
		}
		r.step()
	}
	if r.t < deadline {
		r.t = deadline
	}
}

func (r *refOrder) pending() int {
	n := 0
	for _, ev := range r.evs {
		if !r.dead[ev.id] {
			n++
		}
	}
	return n
}

func TestCalendarMatchesSortedOrder(t *testing.T) {
	var cov calendarCoverage
	for seed := int64(1); seed <= 6; seed++ {
		o := newEngineOrder(&cov)
		got := newOrderScript(seed, o)
		o.d = got
		got.run(400)

		r := &refOrder{dead: map[int]bool{}}
		want := newOrderScript(seed, r)
		r.d = want
		want.run(400)

		if len(want.log) < 10000 {
			t.Fatalf("seed %d: the schedule logged only %d lines", seed, len(want.log))
		}
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				line := "<nothing>"
				if i < len(got.log) {
					line = got.log[i]
				}
				t.Fatalf("seed %d, line %d: engine logged %q, sorted reference %q", seed, i, line, want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: engine logged %d lines, reference %d", seed, len(got.log), len(want.log))
		}
	}
	// The schedules must have reached the paths they are meant to pin.
	if cov.maxBuckets < 1024 || cov.minBuckets != minBuckets {
		t.Errorf("buckets grew to %d and shrank to %d; want ≥ 1024 and back to %d", cov.maxBuckets, cov.minBuckets, minBuckets)
	}
	if cov.belowCur == 0 {
		t.Error("no push landed below the scan position")
	}
	if cov.clamped == 0 {
		t.Error("no slot reached maxSlot")
	}
}
