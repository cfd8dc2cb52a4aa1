package core

import (
	"bytes"
	"testing"
)

// FuzzParseMembership pins the m2 decoder — which reads POST
// /membership bodies off the network — to the same contract as the
// other wire decoders: arbitrary input never panics, any accepted line
// passes Validate, and once normalized it re-encodes to a line that
// parses and re-encodes to the same bytes.
func FuzzParseMembership(f *testing.F) {
	for _, mb := range []Membership{
		{Epoch: 0, Masters: []int{0}},
		{Epoch: 7, Masters: []int{0, 2, 5}, Slaves: []int{1, 3, 4, 6, 7}},
		{Epoch: 18446744073709551615, Masters: []int{9, 3}, Slaves: []int{4}},
	} {
		f.Add(mb.AppendWire(nil))
	}
	for _, raw := range [][]byte{
		[]byte("m2 "),
		[]byte("m1 1 1 1 0 0\n"),
		[]byte("m2 1 1 1 0 0\n"),
		[]byte("m2 1 2 0\n"),
		[]byte("m2 1 0 0\n"),
		[]byte("m2 1 1 0 1 0\n"),
		[]byte("m2 1 1 -3 0\n"),
		[]byte("m2 1 99999999 0\n"),
		[]byte("m2 1 1 0 0 extra\n"),
		[]byte("junk"),
		[]byte(""),
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var mb Membership
		if err := ParseMembership(b, &mb); err != nil {
			return
		}
		if err := mb.Validate(); err != nil {
			t.Fatalf("accepted %q fails Validate: %v", b, err)
		}
		mb.Normalize()
		re := mb.AppendWire(nil)
		var mb2 Membership
		if err := ParseMembership(re, &mb2); err != nil {
			t.Fatalf("re-encoded %q does not parse: %v", re, err)
		}
		if re2 := mb2.AppendWire(nil); !bytes.Equal(re, re2) {
			t.Fatalf("round trip drift: %q -> %q", re, re2)
		}
	})
}
