// Package obs is the unified observability layer shared by the
// simulator and the live cluster: per-request lifecycle tracing,
// log-scale latency histograms, windowed counters, and Prometheus
// text-format exposition.
//
// The paper validates its analytic model by measuring the prototype —
// per-class response times, the arrival ratio a, the service ratio r,
// and the self-stabilizing θ₂ cap all come from runtime measurement —
// so every adaptive mechanism in this reproduction is only as good as
// its instrumentation. This package provides that instrumentation once,
// for both substrates: internal/cluster (virtual time) and
// internal/httpcluster (wall clock) emit the same Event stream and
// aggregate into the same Histogram type.
//
// Cost discipline. Tracing is designed to cost ~nothing when disabled:
// probes are nil-guarded interface fields, Event is passed by value, and
// no probe site allocates. When enabled, JSONLTracer encodes into a
// reused buffer with strconv appends (no encoding/json, no reflection),
// and Histogram.Observe is a few integer operations on a fixed array.
package obs

// EventKind identifies one lifecycle point of a request.
type EventKind uint8

// Lifecycle points in request order. A complete trace of one request
// reads: Arrival → Decision → Dispatch → (PhaseCPU | PhaseDisk)* →
// Complete. Static requests get a Decision too (the policy routes them
// to the receiving master), with a zero RSRC cost.
const (
	// KindArrival is the request reaching the cluster front end.
	// Value carries the intrinsic service demand in seconds.
	KindArrival EventKind = iota
	// KindDecision is the policy choosing an execution node for a
	// dynamic request. Node is the chosen node, Value the RSRC cost of
	// that node (0 when the policy does not expose costs), and Admit
	// whether the reservation cap let masters compete.
	KindDecision
	// KindDispatch is the request entering its execution node's queues.
	// Remote marks dispatch off the receiving master (paying the
	// remote-execution latency).
	KindDispatch
	// KindPhaseCPU is one completed CPU burst; Value is the burst
	// length in seconds on the node in Node.
	KindPhaseCPU
	// KindPhaseDisk is one completed disk burst; Value is the burst
	// length in seconds.
	KindPhaseDisk
	// KindComplete is the request finishing; Value is the server-site
	// response time in seconds.
	KindComplete
	// KindRetry is a failed placement attempt being retried elsewhere.
	// Node is the node that failed the attempt; Value the attempt number
	// (1 = first retry).
	KindRetry
	// KindShed is a request rejected by overload protection (503).
	// Node is the shedding node; Value the advertised Retry-After in
	// seconds. Terminal.
	KindShed
	// KindExhausted is a request dropped after its retry budget or
	// deadline ran out (502). Value is the number of attempts made.
	// Terminal.
	KindExhausted
)

// String returns the JSONL tag of the kind.
func (k EventKind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindDecision:
		return "decision"
	case KindDispatch:
		return "dispatch"
	case KindPhaseCPU:
		return "cpu"
	case KindPhaseDisk:
		return "disk"
	case KindComplete:
		return "complete"
	case KindRetry:
		return "retry"
	case KindShed:
		return "shed"
	case KindExhausted:
		return "exhausted"
	}
	return "unknown"
}

// Event is one lifecycle point of one request. It is a flat value type
// so probe sites pass it without allocating; field meaning varies by
// Kind (see the kind constants).
type Event struct {
	// Req identifies the request within its run; ids are positive.
	Req int64
	// Time is the event timestamp in seconds — virtual time in the
	// simulator, unscaled wall time in the live cluster.
	Time float64
	// Kind is the lifecycle point.
	Kind EventKind
	// Class is the request class ("static" or "dynamic");
	// populated on Arrival events.
	Class string
	// Node is the node acting on the request (-1 when not applicable).
	Node int
	// Value is the kind-specific measurement (see kind constants).
	Value float64
	// Admit reports reservation admission on Decision events.
	Admit bool
	// Remote marks off-master execution on Dispatch events.
	Remote bool
}

// Tracer consumes lifecycle events. Implementations must be cheap:
// the simulator calls Emit from its hottest paths. A nil Tracer is the
// disabled state — probe sites guard with a plain != nil check, so
// disabled tracing costs one branch per site.
type Tracer interface {
	Emit(ev Event)
}
