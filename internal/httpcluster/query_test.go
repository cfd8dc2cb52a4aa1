package httpcluster

import (
	"net/url"
	"strconv"
	"testing"

	"msweb/internal/trace"
)

// The hand-rolled parser must agree with url.Values.Get semantics on
// every field the handlers consume, across missing, malformed, escaped
// and duplicated keys.
func TestParseReqQueryMatchesURLValues(t *testing.T) {
	queries := []string{
		"",
		"demand=0.5&w=0.3",
		"class=d&demand=0.02&w=0.9&script=7&size=4096",
		"class=s&demand=0&w=1",
		"demand=1e-3&w=0.5&fork=1",
		"demand=0.5",                        // missing w
		"w=0.5",                             // missing demand
		"demand=abc&w=0.5",                  // malformed demand
		"demand=0.5&w=zz",                   // malformed w
		"demand=&w=",                        // empty values
		"demand&w",                          // pairs without '='
		"demand=0.5&demand=0.9&w=0.1&w=0.2", // duplicates: first wins
		"class=d&class=s&demand=1&w=0",      // duplicate class
		"script=12&script=99&demand=1&w=0",
		"size=100&size=999&demand=1&w=0",
		"fork=1&fork=0&demand=1&w=0",
		"fork=0&fork=1&demand=1&w=0",
		"demand=%30%2E%35&w=0.5",   // %-escaped "0.5"
		"demand=0.5&w=0.5&size=+3", // '+' means space: unparseable int
		"demand=0%ZZ&w=0.5",        // invalid escape: unparseable
		"unknown=1&demand=0.25&w=0.75&extra=x",
		"&&demand=0.5&&w=0.25&&",
		"script=nope&demand=1&w=1",
	}
	for _, raw := range queries {
		q, _ := url.ParseQuery(raw) // ignore error: Get still works on what parsed
		p := parseReqQuery(raw)

		wantDemand, errD := strconv.ParseFloat(q.Get("demand"), 64)
		if p.demandOK != (errD == nil) {
			t.Fatalf("%q: demandOK=%v, url.Values err=%v", raw, p.demandOK, errD)
		}
		if p.demandOK && p.demand != wantDemand {
			t.Fatalf("%q: demand=%v want %v", raw, p.demand, wantDemand)
		}
		wantW, errW := strconv.ParseFloat(q.Get("w"), 64)
		if p.wOK != (errW == nil) {
			t.Fatalf("%q: wOK=%v, url.Values err=%v", raw, p.wOK, errW)
		}
		if p.wOK && p.w != wantW {
			t.Fatalf("%q: w=%v want %v", raw, p.w, wantW)
		}
		wantClass := trace.Static
		if q.Get("class") == "d" {
			wantClass = trace.Dynamic
		}
		if p.class != wantClass {
			t.Fatalf("%q: class=%v want %v", raw, p.class, wantClass)
		}
		wantScript, _ := strconv.Atoi(q.Get("script"))
		if p.script != wantScript {
			t.Fatalf("%q: script=%d want %d", raw, p.script, wantScript)
		}
		wantSize, _ := strconv.ParseInt(q.Get("size"), 10, 64)
		if p.size != wantSize {
			t.Fatalf("%q: size=%d want %d", raw, p.size, wantSize)
		}
		if wantFork := q.Get("fork") == "1"; p.fork != wantFork {
			t.Fatalf("%q: fork=%v want %v", raw, p.fork, wantFork)
		}
	}
}

// Plain numeric queries — everything the cluster's own components
// generate — must parse without allocating.
func TestParseReqQueryZeroAlloc(t *testing.T) {
	raw := "class=d&demand=0.025&w=0.9&script=3&size=4096&fork=1"
	allocs := testing.AllocsPerRun(200, func() {
		p := parseReqQuery(raw)
		if !p.demandOK || !p.wOK || p.class != trace.Dynamic {
			t.Fatal("parse failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("parseReqQuery allocates %.1f times on the escape-free path", allocs)
	}
}
