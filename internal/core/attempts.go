package core

import "time"

// Attempts is the failover rule for one dynamic request: the paper's
// "restart the dynamic content process on another node" when a
// dispatch does not serve it, bounded by a retry budget of distinct
// nodes, the request's deadline and its idempotence. It does no I/O,
// reads no clock and allocates nothing. A driver (the live master)
// places, dispatches, classifies what came back as an Outcome and hands
// it to Report with the time; the Step it gets back says what to do
// next. Candidates the driver offers exclude Tried.
type Attempts struct {
	idem     bool
	deadline int64 // unixnano; no dispatch starts at or after it
	n        int
	tried    [RetryBudget]int
}

// RetryBudget is how many dispatches one request gets, each to a node
// not tried before.
const RetryBudget = 3

// DispatchTimeout caps a request's deadline: a live client's budget
// may only tighten it, and a simulated request's deadline is its
// arrival plus DispatchTimeout.
const DispatchTimeout = 120 * time.Second

// Outcome classifies one dispatch.
type Outcome uint8

const (
	// Served: the node ran the work and answered 200.
	Served Outcome = iota
	// Refused: the node answered another status, so the work did not run.
	Refused
	// NotSent: the work never reached the node — an open circuit, no
	// URL, a failed dial or a failed upgrade.
	NotSent
	// MayHaveRun: the work was sent and the exchange then failed, so the
	// node may have run it.
	MayHaveRun
	// Expired: the deadline passed before the dispatch or while the node
	// held it.
	Expired
)

// Step is what the driver does next.
type Step uint8

const (
	// StepDispatch: place and dispatch on a node not in Tried.
	StepDispatch Step = iota
	// StepDone: a node served the request.
	StepDone
	// StepFail: answer 502 — the deadline passed mid-dispatch, or
	// non-idempotent work may have run and must not run again.
	StepFail
	// StepSpent: no further dispatch, because the budget is used up or
	// the deadline has passed. What follows is the driver's: run the
	// work locally, or shed it.
	StepSpent
)

// NewAttempts starts a request's attempts. idem says whether its work
// may run twice; deadlineNs is its absolute deadline in unixnano.
func NewAttempts(idem bool, deadlineNs int64) Attempts {
	return Attempts{idem: idem, deadline: deadlineNs}
}

// Next is the step before the first dispatch, and after any dispatch
// that failed retryably: dispatch while budget and time remain.
func (a *Attempts) Next(now int64) Step {
	if a.n >= RetryBudget || now >= a.deadline {
		return StepSpent
	}
	return StepDispatch
}

// Report records the outcome of a dispatch to node, observed at now,
// and returns the next step. Calling it after a step other than
// StepDispatch is a driver error.
func (a *Attempts) Report(node int, o Outcome, now int64) Step {
	if o == Served {
		return StepDone
	}
	a.tried[a.n] = node
	a.n++
	if o == Expired || o == MayHaveRun && !a.idem {
		return StepFail
	}
	return a.Next(now)
}

// Tried lists the nodes dispatched to so far, in order; a driver drops
// them from its candidates. The slice aliases a.
func (a *Attempts) Tried() []int { return a.tried[:a.n] }
