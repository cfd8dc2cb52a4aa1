package httpcluster

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"msweb/internal/core"
)

// sameExec compares entries with bit-level float equality (NaN demand
// bits survive the fixed-layout codec exactly).
func sameExec(a, b frameExec) bool {
	return math.Float64bits(a.demand) == math.Float64bits(b.demand) &&
		math.Float64bits(a.w) == math.Float64bits(b.w) &&
		a.deadlineNs == b.deadlineNs && a.fork == b.fork
}

// FuzzFrameDecode pins the binary frame decoders' safety contract:
// arbitrary payloads never panic or read out of bounds, accepted exec
// payloads survive an encode/decode round trip, and the length-prefixed
// reader refuses corrupt lengths instead of allocating unboundedly.
func FuzzFrameDecode(f *testing.F) {
	execSeed := appendExecFrame(nil, []frameExec{
		{demand: 1, w: 0.5, deadlineNs: 42, fork: true},
		{demand: 0, w: 1, deadlineNs: -7, fork: false},
		{demand: 1e10, w: 0.5},
		{demand: 1e300, w: 0.5},
	})
	respSeed := appendRespFrame(nil, []int{200, 503, 504},
		core.Load{CPUIdle: 1, DiskAvail: 0.5, CPUQueue: 2, DiskQueue: 1, Speed: 1}, nil)
	respSumSeed := appendRespFrame(nil, []int{200},
		core.Load{CPUIdle: 1, Speed: 1},
		(&core.ShardSummary{Shard: 1, AtNs: 7, Nodes: 2}).AppendWire(nil))
	reqSeed := appendReqFrame(nil, []frameReq{
		{demand: 1, w: 0.5, script: 3, timeoutMs: 250, dynamic: true, idem: true},
		{demand: 0, w: 1},
		{demand: 1e10, w: 0.5, dynamic: true},
		{demand: 1e300, w: 0.5},
	})
	for _, seed := range [][]byte{
		execSeed[4:], // payloads (length prefix stripped)
		respSeed[4:],
		respSumSeed[4:],
		reqSeed[4:],
		execSeed, // full frames exercise readFrame's prefix handling
		respSeed,
		reqSeed,
		{frameVersion, frameKindExec, 0, 0},
		{frameVersion, frameKindReq, 0, 0},
		{frameVersion, frameKindResp, 1, 0, 200, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 0xff},
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if reqs, err := parseExecPayload(b, nil); err == nil {
			re := appendExecFrame(nil, reqs)
			reqs2, err := parseExecPayload(re[4:], nil)
			if err != nil {
				t.Fatalf("re-encoded exec payload does not parse: %v", err)
			}
			if len(reqs2) != len(reqs) {
				t.Fatalf("round trip count drift: %d -> %d", len(reqs), len(reqs2))
			}
			for i := range reqs {
				if !sameExec(reqs[i], reqs2[i]) {
					t.Fatalf("entry %d drift: %+v -> %+v", i, reqs[i], reqs2[i])
				}
			}
		}
		if reqs, err := parseReqPayload(b, nil); err == nil {
			re := appendReqFrame(nil, reqs)
			reqs2, err := parseReqPayload(re[4:], nil)
			if err != nil || len(reqs2) != len(reqs) {
				t.Fatalf("re-encoded req payload does not parse: %v", err)
			}
			for i := range reqs {
				a, b := reqs[i], reqs2[i]
				if math.Float64bits(a.demand) != math.Float64bits(b.demand) ||
					math.Float64bits(a.w) != math.Float64bits(b.w) ||
					a.script != b.script || a.timeoutMs != b.timeoutMs ||
					a.dynamic != b.dynamic || a.idem != b.idem {
					t.Fatalf("qentry %d drift: %+v -> %+v", i, a, b)
				}
			}
		}
		if sts, load, hasLoad, sum, err := parseRespPayload(b, nil); err == nil && hasLoad {
			if err := load.Validate(); err != nil {
				t.Fatalf("accepted resp payload carries an invalid load: %v", err)
			}
			re := appendRespFrame(nil, sts, load, sum)
			sts2, load2, hasLoad2, sum2, err := parseRespPayload(re[4:], nil)
			if err != nil || !hasLoad2 {
				t.Fatalf("re-encoded resp payload does not parse: %v", err)
			}
			if string(sum) != string(sum2) {
				t.Fatalf("summary drift: %q -> %q", sum, sum2)
			}
			for i := range sts {
				// Statuses are u16 on the wire; accepted inputs are already
				// in range, so they must survive exactly.
				if sts[i] != sts2[i] {
					t.Fatalf("status %d drift: %d -> %d", i, sts[i], sts2[i])
				}
			}
			if math.Float64bits(load.Speed) != math.Float64bits(load2.Speed) ||
				load.CPUQueue != load2.CPUQueue || load.DiskQueue != load2.DiskQueue {
				t.Fatalf("load drift: %+v -> %+v", load, load2)
			}
		}
		// The frame reader must bound-check the length prefix and never
		// panic on truncated input.
		readFrame(bufio.NewReader(bytes.NewReader(b)), nil) //nolint:errcheck
	})
}
