package core

import (
	"math"
	"testing"
)

// FuzzParseShardSummary pins the s2 decoder's safety contract:
// arbitrary input never panics, over-reads, or allocates unboundedly
// (the digest cap), any accepted summary's aggregate and digests pass
// Load.Validate, and it re-encodes to a line that parses back to the
// same summary, epoch included.
func FuzzParseShardSummary(f *testing.F) {
	seeds := []ShardSummary{
		{Shard: 0, AtNs: 0, Nodes: 0},
		{Shard: 3, AtNs: 1234567890, Nodes: 64, CPUIdle: 0.5, DiskAvail: 0.25,
			CPUQueue: 17, DiskQueue: 9, Idle: 40,
			Top: []ShardDigest{
				{Node: 12, Load: Load{CPUIdle: 0.9, DiskAvail: 0.8, Speed: 1}},
				{Node: 77, Load: Load{CPUIdle: 0.7, DiskAvail: 0.6, CPUQueue: 2, DiskQueue: 1, Speed: 2}},
			}},
		// Out of range: rejected by Validate.
		{Shard: -1, AtNs: -5, Nodes: 1, CPUIdle: math.Inf(1), DiskAvail: math.Inf(-1),
			Top: []ShardDigest{{Node: 0, Load: Load{Speed: math.NaN()}}}},
		// Epoch-stamped summaries from rebalanced maps.
		{Shard: 2, Epoch: 1, AtNs: 99, Nodes: 8},
		{Shard: 0, Epoch: 18446744073709551615, AtNs: 7, Nodes: 3,
			Top: []ShardDigest{{Node: 9, Load: Load{CPUIdle: 0.4, DiskAvail: 0.3, Speed: 1}}}},
	}
	for _, s := range seeds {
		f.Add(s.AppendWire(nil))
	}
	for _, raw := range [][]byte{
		[]byte("s2 "),
		[]byte("s2 1 0 2 3 0 0 0 0 0 1\n"),
		[]byte("s2 1 0 2 3 0 0 0 0 0 9999\n"),
		[]byte("s1 1 2 3 0 0 0 0 0 0\n"), // the retired epoch-less framing
		[]byte("s2 1 5 2 3 0 0 0 0 0 0\n"),
		[]byte("s2 1 0 2 3 0 0 0 0 0 0\n"),
		[]byte("s2 1 x 2 3 0 0 0 0 0 0\n"),
		[]byte("s3 1 0 2 3 0 0 0 0 0 0\n"),
		[]byte("junk"),
		[]byte(""),
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s ShardSummary
		if err := ParseShardSummary(b, &s); err != nil {
			return
		}
		if len(s.Top) > MaxShardDigests {
			t.Fatalf("digest cap violated: %d", len(s.Top))
		}
		agg := Load{CPUIdle: s.CPUIdle, DiskAvail: s.DiskAvail, CPUQueue: s.CPUQueue, DiskQueue: s.DiskQueue}
		if err := agg.Validate(); err != nil {
			t.Fatalf("accepted %q with an invalid aggregate: %v", b, err)
		}
		for i, d := range s.Top {
			if err := d.Load.Validate(); err != nil {
				t.Fatalf("accepted %q with invalid digest %d: %v", b, i, err)
			}
		}
		re := s.AppendWire(nil)
		var s2 ShardSummary
		if err := ParseShardSummary(re, &s2); err != nil {
			t.Fatalf("re-encoded %q does not parse: %v", re, err)
		}
		if s.Shard != s2.Shard || s.Epoch != s2.Epoch || s.AtNs != s2.AtNs || s.Nodes != s2.Nodes ||
			s.CPUIdle != s2.CPUIdle || s.DiskAvail != s2.DiskAvail ||
			s.CPUQueue != s2.CPUQueue || s.DiskQueue != s2.DiskQueue || s.Idle != s2.Idle ||
			len(s.Top) != len(s2.Top) {
			t.Fatalf("round trip drift: %+v -> %q -> %+v", s, re, s2)
		}
		for i := range s.Top {
			if s.Top[i] != s2.Top[i] {
				t.Fatalf("digest %d drift: %+v vs %+v", i, s.Top[i], s2.Top[i])
			}
		}
	})
}
