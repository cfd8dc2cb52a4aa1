package httpcluster

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"testing"

	"msweb/internal/trace"
)

// reqQueryCases cover missing, malformed, escaped and duplicated keys;
// they also seed FuzzReqQuery.
var reqQueryCases = []string{
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
	"idem=0&demand=1&w=1",
	"idem=1&idem=0&demand=1&w=1",
	"demand=%30%2E%35&w=0.5",   // %-escaped "0.5"
	"demand=0.5&w=0.5&size=+3", // '+' means space: unparseable int
	"demand=0%ZZ&w=0.5",        // invalid escape: the pair is dropped
	"unknown=1&demand=0.25&w=0.75&extra=x",
	"&&demand=0.5&&w=0.25&&",
	"script=nope&demand=1&w=1",
	"dem%61nd=1&w=0.5",        // an escaped key
	"demand=1;x&demand=2&w=1", // ParseQuery drops a pair holding ';'
	"demand=%zz&demand=3&w=1", // ...and one with a bad escape
}

// urlValuesMismatch compares every field parseReqQuery consumes against
// url.ParseQuery and url.Values.Get on raw, and describes the first
// disagreement ("" when there is none).
func urlValuesMismatch(raw string) string {
	q, _ := url.ParseQuery(raw) // ignore error: Get still works on what parsed
	p := parseReqQuery(raw)
	sameFloat := func(ok bool, got float64, key string) string {
		want, err := strconv.ParseFloat(q.Get(key), 64)
		switch {
		case ok != (err == nil):
			return fmt.Sprintf("%sOK=%v, url.Values err=%v", key, ok, err)
		case ok && math.Float64bits(got) != math.Float64bits(want):
			return fmt.Sprintf("%s=%v want %v", key, got, want)
		}
		return ""
	}
	if msg := sameFloat(p.demandOK, p.demand, "demand"); msg != "" {
		return msg
	}
	if msg := sameFloat(p.wOK, p.w, "w"); msg != "" {
		return msg
	}
	wantClass := trace.Static
	if q.Get("class") == "d" {
		wantClass = trace.Dynamic
	}
	wantScript, _ := strconv.Atoi(q.Get("script"))
	wantSize, _ := strconv.ParseInt(q.Get("size"), 10, 64)
	switch {
	case p.class != wantClass:
		return fmt.Sprintf("class=%v want %v", p.class, wantClass)
	case p.script != wantScript:
		return fmt.Sprintf("script=%d want %d", p.script, wantScript)
	case p.size != wantSize:
		return fmt.Sprintf("size=%d want %d", p.size, wantSize)
	case p.fork != (q.Get("fork") == "1"):
		return fmt.Sprintf("fork=%v for fork=%q", p.fork, q.Get("fork"))
	case p.idem != (q.Get("idem") != "0"):
		return fmt.Sprintf("idem=%v for idem=%q", p.idem, q.Get("idem"))
	}
	return ""
}

// The hand-rolled parser must agree with url.Values.Get semantics on
// every field the handlers consume.
func TestParseReqQueryMatchesURLValues(t *testing.T) {
	for _, raw := range reqQueryCases {
		if msg := urlValuesMismatch(raw); msg != "" {
			t.Fatalf("%q: %s", raw, msg)
		}
	}
}

// FuzzReqQuery holds parseReqQuery to url.ParseQuery + Get on every
// consumed field, whatever bytes the query holds.
func FuzzReqQuery(f *testing.F) {
	for _, raw := range reqQueryCases {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if msg := urlValuesMismatch(raw); msg != "" {
			t.Fatalf("%q: %s", raw, msg)
		}
	})
}

// FuzzParseTimeoutMs: a TimeoutHeader value reads as strconv.ParseInt's
// value when that is positive, else 0.
func FuzzParseTimeoutMs(f *testing.F) {
	for _, h := range []string{"", "0", "1", "250", "-5", "+7", "1.5", "x", "9223372036854775807", "9223372036854775808"} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		want, err := strconv.ParseInt(h, 10, 64)
		if err != nil || want <= 0 {
			want = 0
		}
		if got := parseTimeoutMs(h); got != want {
			t.Fatalf("parseTimeoutMs(%q) = %d, want %d", h, got, want)
		}
	})
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
