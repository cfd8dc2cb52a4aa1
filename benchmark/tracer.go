package main

import (
	"sort"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans
// of one request share Req; Parent is the ID of the span that caused
// this one (0 for a root). Times are ns since the tracer's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// disabled tracer: begin returns 0 and end ignores it, so call sites
// need no branch of their own.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTime aggregates spans of one name.
type selfTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	// SelfNs is the total minus the part of each span's interval that
	// its child spans cover.
	SelfNs int64 `json:"self_ns"`
}

// selfTimes computes, per span name, total and self time. Children may
// overlap (parallel parts), so covered time is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) []selfTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*selfTime)
	var names []string
	for _, s := range spans {
		if s.End < s.Start {
			continue // never ended: the run stopped inside it
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		at := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.TotalNs += s.End - s.Start
		a.SelfNs += s.End - s.Start - covered
	}
	sort.Strings(names)
	out := make([]selfTime, len(names))
	for i, n := range names {
		out[i] = *agg[n]
	}
	return out
}
