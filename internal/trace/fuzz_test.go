package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead hardens the trace parser: arbitrary input must never panic,
// and anything it accepts must round-trip through Write/Read untouched.
func FuzzRead(f *testing.F) {
	f.Add("# msweb-trace v1 demo\n1.0 s 100 0.001 0.30 1 0\n")
	f.Add("# msweb-trace v1 x\n1.0 d 500 0.040 0.90 8 2 17\n")
	f.Add("# msweb-trace v1\n")
	f.Add("")
	f.Add("garbage")
	f.Add("# msweb-trace v1 a\n1 s 1 1 1 1 1\n2 d 2 2 0.5 2 2 2\n")
	f.Add("# msweb-trace v1 nan\nNaN s 100 0.001 0.30 1 0\n")
	f.Add("# msweb-trace v1 inf\n+Inf s 100 0.001 0.30 1 0\n")

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted traces must satisfy the validator...
		if vErr := tr.Validate(); vErr != nil {
			t.Fatalf("Read accepted a trace Validate rejects: %v", vErr)
		}
		// ...and survive a Write/Read round trip.
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write failed on accepted trace: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round-trip Read failed: %v", err)
		}
		if len(back.Requests) != len(tr.Requests) {
			t.Fatalf("round trip changed record count: %d vs %d", len(back.Requests), len(tr.Requests))
		}
	})
}

// FuzzReadCLF hardens the access-log importer: arbitrary bytes must
// never panic it, strictly or skipping malformed lines, and every trace
// it accepts is in arrival order and passes Validate.
func FuzzReadCLF(f *testing.F) {
	f.Add(clfSample, false)
	f.Add(clfSample+"garbage line without brackets\n", true)
	for _, line := range strings.Split(clfSample, "\n") {
		f.Add(line, false)
	}
	f.Add(`a - - [02/Jun/1999:04:05:08 -0700] "GET /b.html HTTP/1.0" 200 100
a - - [02/Jun/1999:04:05:06 -0700] "GET /a.html HTTP/1.0" 200 100
`, false)
	for _, line := range clfMalformed {
		f.Add(line, true)
	}
	f.Fuzz(func(t *testing.T, input string, skip bool) {
		res, err := ReadCLF(strings.NewReader(input), CLFOptions{MuH: 1200, R: 1.0 / 40, SkipErrors: skip})
		if err != nil {
			return // rejection is fine; panics are not
		}
		reqs := res.Trace.Requests
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Arrival < reqs[i-1].Arrival {
				t.Fatalf("request %d arrives at %v, before %v", i, reqs[i].Arrival, reqs[i-1].Arrival)
			}
		}
		if vErr := res.Trace.Validate(); vErr != nil {
			t.Fatalf("ReadCLF accepted a trace Validate rejects: %v", vErr)
		}
	})
}
