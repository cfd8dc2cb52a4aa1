package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/trace"
)

// lifecycleLog keeps every request's lifecycle events of one run,
// indexed by request id (ids run 1..n in arrival order).
type lifecycleLog struct{ reqs [][]obs.Event }

func (l *lifecycleLog) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindPhaseCPU, obs.KindPhaseDisk, obs.KindDecision:
		return
	}
	for int(ev.Req) >= len(l.reqs) {
		l.reqs = append(l.reqs, nil)
	}
	l.reqs[ev.Req] = append(l.reqs[ev.Req], ev)
}

// attemptCover counts the cases the schedules reached, so the test
// fails when a change to the generator stops reaching one.
type attemptCover struct {
	window    int // a crash caught a request inside its dispatch latency
	second    int // a request failed on a second node
	spent     int // a request used up its budget
	exhausted int
	expired   int // exhausted after its deadline
	shed      int
}

// check walks one run's lifecycles against the shared failover rule:
// every request arrives once and ends once (served, shed or
// exhausted), each failure names the node the request was dispatched
// to, and a request is dispatched to distinct nodes, failing on at
// most core.RetryBudget of them.
func (l *lifecycleLog) check(n int, cov *attemptCover) error {
	if len(l.reqs) != n+1 {
		return fmt.Errorf("traced %d requests, want %d", len(l.reqs)-1, n)
	}
	for id, evs := range l.reqs[1:] {
		id++
		if len(evs) == 0 || evs[0].Kind != obs.KindArrival {
			return fmt.Errorf("request %d does not start with its arrival: %v", id, evs)
		}
		var dispatched []int
		last := obs.Event{Node: -1}
		retries, ends := 0, 0
		for _, ev := range evs[1:] {
			if ends > 0 {
				return fmt.Errorf("request %d has %v after it ended", id, ev.Kind)
			}
			switch ev.Kind {
			case obs.KindArrival:
				return fmt.Errorf("request %d arrived twice", id)
			case obs.KindDispatch:
				if slices.Contains(dispatched, ev.Node) {
					return fmt.Errorf("request %d dispatched to node %d again (dispatches %v)", id, ev.Node, dispatched)
				}
				dispatched = append(dispatched, ev.Node)
				last = ev
			case obs.KindRetry:
				retries++
				if ev.Node != last.Node || last.Kind != obs.KindDispatch {
					return fmt.Errorf("request %d failed on node %d but was dispatched to %d", id, ev.Node, last.Node)
				}
				if retries > core.RetryBudget || int(ev.Value) != retries {
					return fmt.Errorf("request %d: failure %d reported as attempt %v (budget %d)", id, retries, ev.Value, core.RetryBudget)
				}
				if last.Remote && ev.Time-last.Time < remoteLatency {
					cov.window++
				}
				last = ev
			case obs.KindComplete, obs.KindShed, obs.KindExhausted:
				ends++
				switch ev.Kind {
				case obs.KindComplete:
					if last.Kind != obs.KindDispatch {
						return fmt.Errorf("request %d completed without a live dispatch", id)
					}
				case obs.KindShed:
					cov.shed++
				case obs.KindExhausted:
					cov.exhausted++
					if ev.Time-evs[0].Time >= core.DispatchTimeout.Seconds() {
						cov.expired++
					}
				}
			}
		}
		if ends != 1 {
			return fmt.Errorf("request %d ended %d times: %v", id, ends, evs)
		}
		if retries >= 2 {
			cov.second++
		}
		if retries == core.RetryBudget {
			cov.spent++
		}
	}
	return nil
}

// attemptSchedule draws one small cluster, trace and availability
// schedule: p = 3–8, tens of requests, and crash/recover pairs, half of
// them aimed just after an arrival (inside its dispatch latency). One
// schedule in ten also carries a request that outlives
// core.DispatchTimeout and crashes every node after that deadline.
func attemptSchedule(r *rand.Rand) (*trace.Trace, Config) {
	p := 3 + r.Intn(6)
	m := 1 + r.Intn(p)
	cfg := DefaultConfig(p, m)
	cfg.Seed = r.Int63()
	cfg.EnableShedding = r.Intn(2) == 0
	if m > 1 && r.Intn(3) == 0 {
		cfg.Shards = m
	}
	long := r.Intn(10) == 0
	if long {
		// Coarse bursts and polls keep the long job to a few events.
		cfg.OS.CPUQuantum, cfg.OS.PageIOTime, cfg.OS.PriorityUpdate = 1, 1, 1
		cfg.LoadRefresh = 2
	}
	n := 20 + r.Intn(40)
	tr := &trace.Trace{Name: "attempts", Requests: make([]trace.Request, n)}
	at := 0.0
	for i := range tr.Requests {
		at += r.ExpFloat64() * 0.02
		req := trace.Request{Arrival: at, Demand: 0.005 + 0.1*r.Float64(), CPUWeight: r.Float64(), MemPages: 4}
		if r.Intn(3) > 0 {
			req.Class, req.Script = trace.Dynamic, 1+r.Intn(4)
		}
		tr.Requests[i] = req
	}
	if long {
		i := r.Intn(n)
		tr.Requests[i].Class, tr.Requests[i].Demand = trace.Dynamic, 1.5*core.DispatchTimeout.Seconds()
		after := at + core.DispatchTimeout.Seconds()
		for node := 0; node < p; node++ {
			down := after + float64(node)
			cfg.Events = append(cfg.Events,
				AvailabilityEvent{Node: node, At: down}, AvailabilityEvent{Node: node, At: down + 0.5, Available: true})
		}
	}
	// Every crash recovers later, so the schedule ends with every node up.
	for k := 2 + r.Intn(7); k > 0; k-- {
		node := r.Intn(p)
		down := 1.2 * at * r.Float64()
		if r.Intn(2) == 0 {
			down = tr.Requests[r.Intn(n)].Arrival + remoteLatency/2
		}
		cfg.Events = append(cfg.Events,
			AvailabilityEvent{Node: node, At: down}, AvailabilityEvent{Node: node, At: down + 0.3*r.Float64(), Available: true})
	}
	return tr, cfg
}

// The simulator's failover is the live master's core.Attempts rule.
// Over 2 000 seeded schedules of crashes and recoveries, every accepted
// request is served, shed or exhausted exactly once, and its dispatches
// go to distinct nodes, failing on at most core.RetryBudget of them.
func TestSimAttemptSchedules(t *testing.T) {
	var cov attemptCover
	for seed := int64(1); seed <= 2000; seed++ {
		tr, cfg := attemptSchedule(rand.New(rand.NewSource(seed)))
		var log lifecycleLog
		cfg.Tracer = &log
		res, err := Simulate(cfg, core.NewMS(nil, seed), tr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := int64(len(tr.Requests))
		if served := int64(res.Summary.Count); served+res.Shed+res.Exhausted != n {
			t.Fatalf("seed %d: accepted %d != served %d + shed %d + exhausted %d", seed, n, served, res.Shed, res.Exhausted)
		}
		if err := log.check(len(tr.Requests), &cov); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.window == 0 || cov.second == 0 || cov.spent == 0 || cov.exhausted == 0 || cov.expired == 0 || cov.shed == 0 {
		t.Fatalf("the schedules missed a case: %+v", cov)
	}
}
