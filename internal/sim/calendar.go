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
)

// entry is one queued event under its (at, seq) key and slot k. Entries
// live in the calendar's arena and link by index, so neither a push nor
// a pop allocates once the arena has grown to the queue's peak.
type entry struct {
	at   Time
	seq  uint64
	k    int64
	ev   *Event
	next int32 // next entry in the bucket (or the free list); -1 ends it
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
}

// slot returns the calendar slot of time at (at ≥ 0).
func (q *calendar) slot(at Time) int64 {
	if x := at * q.inv; x < maxSlot {
		return int64(x)
	}
	return maxSlot
}

// push queues ev under its (at, seq) key.
func (q *calendar) push(ev *Event) {
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
	}
	i := q.free
	if i >= 0 {
		q.free = q.ents[i].next
	} else {
		i = int32(len(q.ents))
		q.ents = append(q.ents, entry{})
	}
	ev.queued = true
	en := &q.ents[i]
	en.at, en.seq, en.ev = ev.at, ev.seq, ev
	en.k = q.slot(ev.at)
	if en.k < q.cur {
		// Only a push below the queue's top lands here: a feed event
		// fired ahead of the top a pop had already scanned to, or
		// RunUntil stopped short of it and moved the clock.
		q.cur = en.k
	}
	q.link(i)
	q.n++
	if q.n > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// link inserts entry i into its bucket's sorted list. The tail is
// checked first: a pushed event carries the newest seq, so one that is
// not earlier than the tail (every event of an equal-time burst) appends
// in O(1) and never walks the list.
func (q *calendar) link(i int32) {
	ents := q.ents
	en := &ents[i]
	b := &q.buckets[en.k&int64(len(q.buckets)-1)]
	switch {
	case b.head < 0:
		en.next = -1
		b.head, b.tail = i, i
	case !en.before(&ents[b.tail]):
		en.next = -1
		ents[b.tail].next = i
		b.tail = i
	case en.before(&ents[b.head]):
		en.next = b.head
		b.head = i
	default:
		// Strictly between head and tail, so the walk stops before
		// running off the list.
		p := b.head
		for !en.before(&ents[ents[p].next]) {
			p = ents[p].next
		}
		en.next = ents[p].next
		ents[p].next = i
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
	for range buckets {
		if h := buckets[q.cur&mask].head; h >= 0 && ents[h].k == q.cur {
			return h
		}
		// No entry has slot cur: the bucket's head has the smallest
		// slot in it, and it is not cur.
		q.cur++
	}
	// A whole year of empty slots: jump to the earliest head directly.
	best := int32(-1)
	for _, b := range buckets {
		if b.head >= 0 && (best < 0 || ents[b.head].before(&ents[best])) {
			best = b.head
		}
	}
	q.cur = ents[best].k
	return best
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *calendar) pop() *Event {
	i := q.top()
	en := &q.ents[i]
	q.buckets[q.cur&int64(len(q.buckets)-1)].head = en.next
	ev := en.ev
	ev.queued = false
	en.ev = nil
	en.next = q.free
	q.free = i
	q.n--
	if q.n < len(q.buckets)/2 && len(q.buckets) > minBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

// dropCanceled unlinks every canceled entry, frees it and hands its
// event to reclaim.
func (q *calendar) dropCanceled(reclaim func(*Event)) {
	for bi := range q.buckets {
		b := &q.buckets[bi]
		last := int32(-1)
		for i := b.head; i >= 0; {
			en := &q.ents[i]
			next := en.next
			if ev := en.ev; ev.canceled {
				if last < 0 {
					b.head = next
				} else {
					q.ents[last].next = next
				}
				ev.queued = false
				en.ev = nil
				en.next = q.free
				q.free = i
				q.n--
				reclaim(ev)
			} else {
				last = i
			}
			i = next
		}
		b.tail = last
	}
}

// resize rebuilds the calendar with nb buckets and a width of three
// times the mean gap between the earliest widthSample entries (Brown's
// rule; kept when those entries share one timestamp). Entry indices are
// the calendar's own, so the arena is rearranged in place: queued
// entries first, sorted by (at, seq), then the free ones. Every slot is
// recomputed and entries are relinked in that order, so each lands at
// its bucket's tail. The arena and, when it has the capacity, the
// bucket array are reused, so a queue that stays within sizes it has
// had before resizes without allocating.
func (q *calendar) resize(nb int) {
	ents := q.ents
	live := ents[:0]
	for _, en := range ents {
		if en.ev != nil {
			live = append(live, en)
		}
	}
	clear(ents[len(live):])
	slices.SortFunc(live, func(a, b entry) int {
		if a.before(&b) {
			return -1
		}
		if b.before(&a) {
			return 1
		}
		return 0
	})
	if m := min(len(live), widthSample); m >= 2 {
		gap := (live[m-1].at - live[0].at) / float64(m-1)
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
	for i := range live {
		en := &live[i]
		en.k = q.slot(en.at)
		en.next = -1
		b := &q.buckets[en.k&mask]
		if b.head < 0 {
			b.head = int32(i)
		} else {
			ents[b.tail].next = int32(i)
		}
		b.tail = int32(i)
	}
	if len(live) > 0 {
		q.cur = live[0].k
	}
	q.free = -1
	for i := len(ents) - 1; i >= len(live); i-- {
		ents[i].next = q.free
		q.free = int32(i)
	}
}
