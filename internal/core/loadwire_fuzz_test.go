package core

import (
	"math"
	"testing"
)

// FuzzParseLoadWire pins the compact l1 parser's safety contract:
// arbitrary input never panics or over-reads, any input it accepts is a
// load Validate allows, and it re-encodes to a line that parses back to
// the same load.
func FuzzParseLoadWire(f *testing.F) {
	for _, seed := range [][]byte{
		Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}.AppendWire(nil),
		Load{CPUIdle: 0.5, DiskAvail: 0.25, CPUQueue: 3, DiskQueue: 9, Speed: 2}.AppendWire(nil),
		// Out of range: rejected by Validate.
		Load{CPUIdle: math.Inf(1), DiskAvail: math.Inf(-1), Speed: math.NaN()}.AppendWire(nil),
		[]byte("l1 "),
		[]byte("l1 1 1 0 0"),
		[]byte("l1 1 1 0 0 1 extra\n"),
		[]byte("l1 1  1 0 0 1\n"),
		[]byte("junk"),
		[]byte(""),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := ParseLoadWire(b)
		if err != nil {
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("accepted %q fails Validate: %v", b, err)
		}
		re := l.AppendWire(nil)
		l2, err := ParseLoadWire(re)
		if err != nil {
			t.Fatalf("re-encoded %q does not parse: %v", re, err)
		}
		if l != l2 {
			t.Fatalf("round trip drift: %+v -> %q -> %+v", l, re, l2)
		}
	})
}
