package httpcluster

import (
	"sync"
	"testing"
	"time"
)

// Breaker transition tests run on a fake clock: every step supplies its
// own "now", so state changes are pinned without sleeping.
func TestBreakerTransitions(t *testing.T) {
	const sec = int64(time.Second)
	type step struct {
		at      int64 // fake UnixNano
		op      string
		ok      bool  // for release/poll ops
		want    bool  // for allow/acquire ops
		state   int32 // expected state after the step
		comment string
	}
	cases := []struct {
		name    string
		openFor time.Duration
		steps   []step
	}{
		{
			name:    "one strike opens, hold-down, probe closes",
			openFor: 2 * time.Second,
			steps: []step{
				{at: 0, op: "allow", want: true, state: breakerClosed, comment: "fresh slot is closed"},
				{at: 0, op: "acquire", want: true, state: breakerClosed},
				{at: 0, op: "release", ok: false, state: breakerOpen, comment: "threshold 1: first failure opens"},
				{at: 1 * sec, op: "allow", want: false, state: breakerOpen, comment: "hold-down still running"},
				{at: 2 * sec, op: "allow", want: true, state: breakerHalfOpen, comment: "hold-down elapsed → half-open"},
				{at: 2 * sec, op: "acquire", want: true, state: breakerHalfOpen, comment: "probe slot claimed"},
				{at: 2 * sec, op: "acquire", want: false, state: breakerHalfOpen, comment: "only one probe in flight"},
				{at: 2*sec + 1, op: "release", ok: true, state: breakerClosed, comment: "probe success closes"},
				{at: 2*sec + 2, op: "allow", want: true, state: breakerClosed},
			},
		},
		{
			name:    "failed probe restarts the hold-down",
			openFor: time.Second,
			steps: []step{
				{at: 0, op: "release", ok: false, state: breakerOpen},
				{at: 1 * sec, op: "acquire", want: true, state: breakerHalfOpen},
				{at: 1 * sec, op: "release", ok: false, state: breakerOpen, comment: "probe failed → reopen"},
				{at: 1*sec + sec/2, op: "allow", want: false, state: breakerOpen, comment: "new hold-down from the reopen"},
				{at: 2 * sec, op: "allow", want: true, state: breakerHalfOpen},
			},
		},
		{
			name:    "poll success closes outright",
			openFor: time.Hour,
			steps: []step{
				{at: 0, op: "pollfail", state: breakerOpen, comment: "failed poll opens like the old markFailed"},
				{at: 1 * sec, op: "allow", want: false, state: breakerOpen},
				{at: 2 * sec, op: "pollok", state: breakerClosed, comment: "answering /load rehabilitates immediately"},
				{at: 2 * sec, op: "allow", want: true, state: breakerClosed},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newBreakerSet(1, tc.openFor)
			for i, st := range tc.steps {
				var got bool
				switch st.op {
				case "allow":
					got = s.Allow(0, st.at)
				case "acquire":
					got = s.Acquire(0, st.at)
				case "release":
					s.Release(0, st.ok, st.at)
				case "pollok":
					s.PollSuccess(0)
				case "pollfail":
					s.PollFailure(0, st.at)
				default:
					t.Fatalf("step %d: unknown op %q", i, st.op)
				}
				if st.op == "allow" || st.op == "acquire" {
					if got != st.want {
						t.Fatalf("step %d (%s %s): got %v, want %v", i, st.op, st.comment, got, st.want)
					}
				}
				if state := s.State(0); state != st.state {
					t.Fatalf("step %d (%s %s): state %d, want %d", i, st.op, st.comment, state, st.state)
				}
			}
		})
	}
}

// Concurrent Acquire/Release hammering must keep the probe count sane
// (run under -race in CI).
func TestBreakerConcurrentProbes(t *testing.T) {
	s := newBreakerSet(1, time.Nanosecond)
	s.Release(0, false, 0) // open; every later now is past the hold-down
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				now := int64(time.Second) + int64(i)
				if s.Acquire(0, now) {
					s.Release(0, i%3 != 0, now)
				}
			}
		}()
	}
	wg.Wait()
	if p := s.slots[0].probes.Load(); p < 0 || p > 1 {
		t.Fatalf("probe count %d out of range after concurrent churn", p)
	}
}
