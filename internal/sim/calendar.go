package sim

import "slices"

// ---- Calendar queue ---------------------------------------------------
//
// The timer queue is a calendar queue (R. Brown, "Calendar Queues: A Fast
// O(1) Priority Queue Implementation for the Simulation Event Set
// Problem", CACM 31(10), 1988): virtual time is cut into slots of one
// width, slot k covering [k·width, (k+1)·width), and slot k's entries
// live in bucket k mod len(buckets), a list sorted by (at, seq). A pop
// scans forward from the current slot to the first bucket whose head
// lies in the slot being scanned.
//
// Why the pop order is exactly (at, seq). An entry's slot is computed
// at push, k = int64(at·inv), and stored with it; a resize that changes
// the width recomputes every entry's slot. Multiplying by a positive
// constant and truncating are both monotone, so at₁ ≤ at₂ implies
// k₁ ≤ k₂: ordering by (k, at, seq) is ordering by (at, seq), and a
// bucket sorted by (at, seq) is sorted by k. The scan keeps the
// invariant that no entry has a slot below cur, so when the head of
// bucket cur mod len(buckets) has k == cur it precedes every entry in
// its bucket (sorted) and every entry elsewhere (larger k, hence larger
// at). Width and bucket count only decide where entries sit and how far
// a pop scans, never which entry a pop returns.
//
// The entry is the event: it holds the payload, and the engine's Event
// handle is its arena index plus its seq. No operation moves a queued
// entry, so a handle stays valid for as long as its event is queued.

const (
	// minBuckets is the smallest bucket array; the queue never shrinks
	// below it.
	minBuckets = 16
	// widthSample is how many of the earliest entries a resize measures
	// to choose the width.
	widthSample = 32
	// maxSlot caps a slot number so that neither at·inv nor the scan
	// position can overflow int64. The cap is monotone too: entries past
	// it share the last slot, still sorted by (at, seq).
	maxSlot = 1 << 62
	// remeasureWork is the work per push (list steps plus empty slots
	// scanned) above which a measuring window ends in a re-measure.
	remeasureWork = 2
)

// entry is one event: its (at, seq) key, its slot k, its bucket link
// and its payload. Entries live in the calendar's arena and link by
// index, so neither a push nor a pop allocates once the arena has grown
// to the queue's peak. A free entry has a nil call.
type entry struct {
	at       Time
	seq      uint64
	k        int64
	next     int32 // next entry in the bucket (or the free list); -1 ends it
	canceled bool
	f64      float64
	call     CallFunc
	arg      any
}

// before reports whether x fires strictly before o: earlier time first,
// FIFO scheduling order (seq) at equal times.
func (x *entry) before(o *entry) bool {
	if x.at != o.at {
		return x.at < o.at
	}
	return x.seq < o.seq
}

// bucket is one calendar day: the first and last entry of a list sorted
// by (at, seq). head < 0 marks it empty (tail is then meaningless).
type bucket struct{ head, tail int32 }

// calendar is the engine's timer queue. Its zero value is an empty
// queue; the arrays are made on the first push.
type calendar struct {
	ents    []entry
	free    int32 // head of the arena free list, linked through next
	buckets []bucket
	inv     float64 // 1 / slot width
	cur     int64   // scan position: no entry has a slot below it
	n       int     // queued entries, canceled ones included
	order   []int32 // resize's scratch: queued entries in (at, seq) order
	// Measured cost, cumulative: list steps walked in link plus empty
	// slots scanned in top (work), and pushes. The current measuring
	// window began when work was workMark and ends when pushes reaches
	// check; see push.
	work, pushes    uint64
	workMark, check uint64
}

// slot returns the calendar slot of time at (at ≥ 0).
func (q *calendar) slot(at Time) int64 {
	if x := at * q.inv; x < maxSlot {
		return int64(x)
	}
	return maxSlot
}

// push queues an event under its (at, seq) key and returns its entry.
//
// A push also closes the measuring window every 4 × len(buckets) pushes
// at one bucket count. If the window's work exceeds remeasureWork per
// push, the width no longer fits the pending events' spacing (a queue
// of steady size keeps the width it measured at its last resize,
// however far the density has drifted since), and push re-runs resize
// at the same bucket count, which re-measures it: at most one
// re-measure per 4 × len(buckets) pushes.
func (q *calendar) push(at Time, seq uint64, call CallFunc, arg any, f64 float64) int32 {
	if q.buckets == nil {
		// The width is 1 s until the first resize measures one; the
		// arena starts with room for what the first bucket array holds
		// before it doubles.
		q.free, q.inv = -1, 1
		q.ents = make([]entry, 0, 2*minBuckets)
		q.buckets = make([]bucket, minBuckets)
		for i := range q.buckets {
			q.buckets[i].head = -1
		}
		q.mark()
	}
	i := q.free
	if i >= 0 {
		q.free = q.ents[i].next
	} else {
		i = int32(len(q.ents))
		q.ents = append(q.ents, entry{})
	}
	en := &q.ents[i]
	en.at, en.seq, en.canceled = at, seq, false
	en.call, en.arg, en.f64 = call, arg, f64
	en.k = q.slot(at)
	if en.k < q.cur {
		// Only a push below the queue's top lands here: a feed event
		// fired ahead of the top a pop had already scanned to, or
		// RunUntil stopped short of it and moved the clock.
		q.cur = en.k
	}
	q.link(i)
	q.n++
	q.pushes++
	nb := len(q.buckets)
	switch {
	case q.n > 2*nb:
		q.resize(2 * nb)
	case q.pushes == q.check && q.work-q.workMark > remeasureWork*4*uint64(nb):
		q.resize(nb)
	case q.pushes == q.check:
		q.mark()
	}
	return i
}

// mark opens a measuring window of 4 × len(buckets) pushes.
func (q *calendar) mark() {
	q.workMark = q.work
	q.check = q.pushes + 4*uint64(len(q.buckets))
}

// link inserts entry i into its bucket's sorted list. A pushed event
// carries the newest seq, so it goes after every entry of its time and
// comparing times alone places it. The tail is checked first: an event
// not earlier than the tail (every event of an equal-time burst)
// appends in O(1) and never walks the list.
func (q *calendar) link(i int32) {
	ents := q.ents
	en := &ents[i]
	b := &q.buckets[en.k&int64(len(q.buckets)-1)]
	switch {
	case b.head < 0:
		en.next = -1
		b.head, b.tail = i, i
	case en.at >= ents[b.tail].at:
		en.next = -1
		ents[b.tail].next = i
		b.tail = i
	case en.at < ents[b.head].at:
		en.next = b.head
		b.head = i
	default:
		// Strictly between head and tail, so the walk stops before
		// running off the list.
		p, steps := b.head, uint64(0)
		for ents[ents[p].next].at <= en.at {
			p = ents[p].next
			steps++
		}
		en.next = ents[p].next
		ents[p].next = i
		q.work += steps
	}
}

// top returns the arena index of the earliest entry, or -1 when the
// queue is empty, moving the scan position up to its slot.
func (q *calendar) top() int32 {
	if q.n == 0 {
		return -1
	}
	buckets, ents := q.buckets, q.ents
	mask := int64(len(buckets) - 1)
	for cur := q.cur; cur < q.cur+int64(len(buckets)); cur++ {
		if h := buckets[cur&mask].head; h >= 0 && ents[h].k == cur {
			// Every slot passed had no entry: the bucket's head has the
			// smallest slot in it, and it was not that slot.
			q.work += uint64(cur - q.cur)
			q.cur = cur
			return h
		}
	}
	// A whole year of empty slots: jump to the earliest head directly.
	q.work += uint64(len(buckets))
	best := int32(-1)
	for _, b := range buckets {
		if b.head >= 0 && (best < 0 || ents[b.head].before(&ents[best])) {
			best = b.head
		}
	}
	q.cur = ents[best].k
	return best
}

// popTop removes entry i, which top has just returned, and frees it.
func (q *calendar) popTop(i int32) {
	q.buckets[q.cur&int64(len(q.buckets)-1)].head = q.ents[i].next
	q.release(i)
	if q.n < len(q.buckets)/2 && len(q.buckets) > minBuckets {
		q.resize(len(q.buckets) / 2)
	}
}

// release returns unlinked entry i to the free list, dropping its
// payload so a freed entry pins no caller state.
func (q *calendar) release(i int32) {
	en := &q.ents[i]
	en.call, en.arg = nil, nil
	en.next = q.free
	q.free = i
	q.n--
}

// dropCanceled unlinks and frees every canceled entry and returns how
// many it freed.
func (q *calendar) dropCanceled() int {
	dropped := 0
	for bi := range q.buckets {
		b := &q.buckets[bi]
		last := int32(-1)
		for i := b.head; i >= 0; {
			next := q.ents[i].next
			if q.ents[i].canceled {
				if last < 0 {
					b.head = next
				} else {
					q.ents[last].next = next
				}
				q.release(i)
				dropped++
			} else {
				last = i
			}
			i = next
		}
		b.tail = last
	}
	return dropped
}

// resize rebuilds the calendar with nb buckets and a width of three
// times the mean gap between the earliest widthSample entries, gaps
// wider than twice the mean left out (Brown's rule; the width is kept
// when those entries share one timestamp). The queued entries' indices
// are sorted by (at, seq) into a scratch slice; every slot is
// recomputed and entries are relinked in that order, so each lands at
// its bucket's tail. No entry moves and free entries keep their links.
// The scratch slice and, when it has the capacity, the bucket array are
// reused, so a queue that stays within sizes it has had before resizes
// without allocating.
func (q *calendar) resize(nb int) {
	ents := q.ents
	if cap(q.order) < len(ents) {
		q.order = make([]int32, 0, cap(ents))
	}
	order := q.order[:0]
	for i := range ents {
		if ents[i].call != nil {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case ents[a].before(&ents[b]):
			return -1
		case ents[b].before(&ents[a]):
			return 1
		}
		return 0
	})
	q.order = order
	if m := min(len(order), widthSample); m >= 2 {
		// Brown's rule: the mean gap, then the mean again over the gaps
		// no wider than twice it, so a few far events in the sample (a
		// decay tick behind a run of CPU bursts) do not set the width.
		mean := (ents[order[m-1]].at - ents[order[0]].at) / float64(m-1)
		sum, near := 0.0, 0
		for j := 1; j < m; j++ {
			if g := ents[order[j]].at - ents[order[j-1]].at; g <= 2*mean {
				sum += g
				near++
			}
		}
		gap := mean
		if sum > 0 {
			gap = sum / float64(near)
		}
		if inv := 1 / (3 * gap); gap > 0 && inv < maxSlot {
			q.inv = inv
		}
	}
	if cap(q.buckets) >= nb {
		q.buckets = q.buckets[:nb]
	} else {
		// Room to double once more without allocating.
		q.buckets = make([]bucket, nb, 2*nb)
	}
	for i := range q.buckets {
		q.buckets[i].head = -1
	}
	mask := int64(nb - 1)
	for _, i := range order {
		en := &ents[i]
		en.k = q.slot(en.at)
		en.next = -1
		b := &q.buckets[en.k&mask]
		if b.head < 0 {
			b.head = i
		} else {
			ents[b.tail].next = i
		}
		b.tail = i
	}
	if len(order) > 0 {
		q.cur = ents[order[0]].k
	}
	q.mark()
}
