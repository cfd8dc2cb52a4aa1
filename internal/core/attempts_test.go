package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestAttemptSchedules drives Attempts through seeded random requests
// the way the live master does — offer candidates minus Tried, dispatch
// one, report a random outcome at a later time — and checks the rule's
// invariants on every step. A failing schedule names its seed.
func TestAttemptSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 5000; seed++ {
		if err := runAttemptSchedule(seed); err != "" {
			t.Fatalf("seed %d: %s", seed, err)
		}
	}
}

// runAttemptSchedule runs one request and returns the first invariant
// it breaks ("" when none).
func runAttemptSchedule(seed uint64) string {
	r := rand.New(rand.NewPCG(seed, 2))
	idem := r.IntN(2) == 0
	now := int64(r.IntN(1000))
	deadline := now + int64(r.IntN(300)) // 0: already expired on arrival
	a := NewAttempts(idem, deadline)
	var sent []int
	mayHaveRun := false
	step := a.Next(now)
	if (step == StepDispatch) != (now < deadline) {
		return "the first dispatch was not decided by the deadline"
	}
	for step == StepDispatch {
		switch {
		case len(sent) == RetryBudget:
			return fmt.Sprintf("a dispatch beyond the budget of %d", RetryBudget)
		case now >= deadline:
			return "a dispatch at or after the deadline"
		case !slices.Equal(a.Tried(), sent):
			return fmt.Sprintf("Tried() = %v, want the dispatched nodes %v", a.Tried(), sent)
		}
		// The candidates: ids drawn from [0, 200), tried ones among them.
		cands := make([]int, 1+r.IntN(5))
		for i := range cands {
			if len(sent) > 0 && r.IntN(3) == 0 {
				cands[i] = sent[r.IntN(len(sent))]
			} else {
				cands[i] = r.IntN(200)
			}
		}
		offered := slices.DeleteFunc(slices.Clone(cands), func(id int) bool { return slices.Contains(a.Tried(), id) })
		if len(offered) == 0 {
			// Every candidate was tried: the driver runs the work locally or
			// sheds it — the request's one ending.
			return ""
		}
		node := offered[r.IntN(len(offered))]
		if slices.Contains(sent, node) {
			return fmt.Sprintf("node %d offered again (candidates %v)", node, cands)
		}
		if mayHaveRun && !idem {
			return "a second dispatch of non-idempotent work that may have run"
		}
		sent = append(sent, node)
		o := Outcome(r.IntN(5))
		mayHaveRun = mayHaveRun || o == MayHaveRun
		now += int64(r.IntN(120))
		step = a.Report(node, o, now)
		spent := len(sent) == RetryBudget || now >= deadline
		mustFail := o == Expired || o == MayHaveRun && !idem
		switch {
		case step > StepSpent:
			return fmt.Sprintf("step %d is no step", step)
		case (step == StepDone) != (o == Served):
			return fmt.Sprintf("outcome %d gave step %d: done iff served", o, step)
		case (step == StepFail) != mustFail:
			return fmt.Sprintf("outcome %d (idempotent %v) gave step %d: 502 iff expired, or non-idempotent work may have run", o, idem, step)
		case step == StepSpent && !spent:
			return "spent with budget and time left"
		case step == StepDispatch && spent:
			return "a retry with the budget or the deadline spent"
		case o != Served && !mustFail && !spent && step != StepDispatch:
			return fmt.Sprintf("retryable outcome %d with budget and time left was not retried", o)
		}
	}
	// The loop left on exactly one terminal step.
	if step == StepDispatch {
		return "the request ended without a terminal step"
	}
	return ""
}
