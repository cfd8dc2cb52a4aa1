package core

import (
	"encoding/json"
	"math"
	"testing"
)

func TestLoadWireRoundTrip(t *testing.T) {
	cases := []Load{
		{},
		{CPUIdle: 1, DiskAvail: 1, Speed: 1},
		{CPUIdle: 0.123456789, DiskAvail: 0.987654321, CPUQueue: 17, DiskQueue: 3, Speed: 2.5},
		{CPUIdle: 1e-9, DiskAvail: 0.5, CPUQueue: 1 << 20, Speed: 0.001},
	}
	for _, l := range cases {
		b := l.AppendWire(nil)
		got, err := ParseLoadWire(b)
		if err != nil {
			t.Fatalf("parse %q: %v", b, err)
		}
		if got != l {
			t.Fatalf("round trip %+v -> %q -> %+v", l, b, got)
		}
		// Without the trailing newline the line must still parse.
		got, err = ParseLoadWire(b[:len(b)-1])
		if err != nil || got != l {
			t.Fatalf("newline-less parse %q: %+v, %v", b[:len(b)-1], got, err)
		}
	}
}

func TestLoadWireAppendReusesBuffer(t *testing.T) {
	l := Load{CPUIdle: 0.5, DiskAvail: 0.25, CPUQueue: 2, DiskQueue: 1, Speed: 1}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = l.AppendWire(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendWire into a sized buffer allocates %.1f times", allocs)
	}
}

func TestLoadWireRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"l2 1 1 0 0 1\n",
		"l1 1 1 0 0\n",          // missing speed
		"l1 1 1 0 0 1 9\n",      // trailing field
		"l1 x 1 0 0 1\n",        // non-numeric float
		"l1 1 1 0.5 0 1\n",      // non-integer queue
		"l1  1 1 0 0 1\n",       // empty field
		`{"cpu_idle":1}`,        // JSON is not the compact format
		"l1 1 1 0 0 1\nl1 1 1 ", // second line
		// Well-formed but out of range (Load.Validate): 1e300 would price
		// the node at ~0 RSRC and draw every dynamic, NaN would hide it
		// from every argmin.
		"l1 1e300 1e300 0 0 1\n",
		"l1 1.0000001 1 0 0 1\n",
		"l1 -0.1 1 0 0 1\n",
		"l1 1 -1e-9 0 0 1\n",
		"l1 NaN 1 0 0 1\n",
		"l1 1 NaN 0 0 1\n",
		"l1 +Inf 1 0 0 1\n",
		"l1 1 -Inf 0 0 1\n",
		"l1 1 1 -1 0 1\n",
		"l1 1 1 0 -7 1\n",
		"l1 1 1 0 0 -1\n",
		"l1 1 1 0 0 NaN\n",
		"l1 1 1 0 0 +Inf\n",
	} {
		if _, err := ParseLoadWire([]byte(in)); err == nil {
			t.Fatalf("ParseLoadWire(%q) accepted", in)
		}
	}
}

// The JSON tags and the compact wire carry the same information: decoding
// the JSON form of a Load equals wire-parsing its compact form.
func TestLoadWireMatchesJSON(t *testing.T) {
	l := Load{CPUIdle: 0.75, DiskAvail: 0.5, CPUQueue: 4, DiskQueue: 2, Speed: 1.5}
	j, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON Load
	if err := json.Unmarshal(j, &fromJSON); err != nil {
		t.Fatal(err)
	}
	fromWire, err := ParseLoadWire(l.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON != fromWire {
		t.Fatalf("JSON %+v != wire %+v", fromJSON, fromWire)
	}
}

func TestViewSnapshotIsDeep(t *testing.T) {
	v := View{
		Now:     3,
		Masters: []int{0, 1},
		Slaves:  []int{2, 3},
		Load:    []Load{{CPUIdle: 1}, {CPUIdle: 0.5}, {CPUIdle: 0.25}, {CPUIdle: 0.125}},
	}
	s := v.Snapshot()
	s.Masters[0] = 9
	s.Slaves[0] = 9
	s.Load[0].CPUIdle = math.Pi
	if v.Masters[0] != 0 || v.Slaves[0] != 2 || v.Load[0].CPUIdle != 1 {
		t.Fatalf("snapshot shares state with the source view: %+v", v)
	}
	if s.Now != 3 || len(s.Load) != 4 {
		t.Fatalf("snapshot dropped fields: %+v", s)
	}
}
