package cluster

// Fault tolerance and dynamic resource recruitment. The paper motivates
// the master/slave architecture with exactly these abilities: slave
// nodes "may be non-dedicated and recruited dynamically when they become
// idle", and "if a slave node fails, a master node may need to restart a
// dynamic content process on another node". This file adds both to the
// simulated cluster: an availability schedule takes nodes down (crash or
// reclamation) and brings them up (recovery or recruitment), and each
// in-flight request the crash lost is reported to its core.Attempts —
// the live master's failover rule — and re-placed at once on a node it
// has not failed on.

import (
	"fmt"
	"sort"

	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/trace"
)

// AvailabilityEvent changes one node's availability at a point in
// virtual time. Down events model crashes or a non-dedicated machine
// being reclaimed by its owner; Up events model recovery or recruitment.
type AvailabilityEvent struct {
	Node      int
	At        float64
	Available bool
}

// validateEvents checks the availability schedule against the topology
// and rejects one that leaves no node available: applied in time order
// (ties in slice order, as the engine fires them) after initiallyDown,
// the schedule must end with at least one node up, or requests would
// retry forever.
func validateEvents(events []AvailabilityEvent, initiallyDown []int, nodes int) error {
	for _, id := range initiallyDown {
		if id < 0 || id >= nodes {
			return fmt.Errorf("cluster: initially-down node %d of %d", id, nodes)
		}
	}
	for i, e := range events {
		if e.Node < 0 || e.Node >= nodes {
			return fmt.Errorf("cluster: availability event %d targets node %d of %d", i, e.Node, nodes)
		}
		if e.At < 0 {
			return fmt.Errorf("cluster: availability event %d at negative time", i)
		}
	}
	up := make([]bool, nodes)
	for i := range up {
		up[i] = true
	}
	for _, id := range initiallyDown {
		up[id] = false
	}
	ordered := append([]AvailabilityEvent(nil), events...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, e := range ordered {
		up[e.Node] = e.Available
	}
	for _, u := range up {
		if u {
			return nil
		}
	}
	return fmt.Errorf("cluster: availability schedule leaves no node available")
}

// pendingRequest records an accepted request until it is served, shed
// or exhausted. Structs recycle through Cluster.freePending; slot
// decides ownership: the struct's index in c.inflight while its job is
// dispatched, −1 otherwise.
type pendingRequest struct {
	id      int64
	slot    int
	req     trace.Request
	arrival float64
	count   bool
	// master is the node whose placement the request is under (−1
	// before the front end picks one); node is where it was dispatched.
	master int
	node   int
	// att is the request's failover rule: the nodes it failed on, its
	// budget and its deadline.
	att core.Attempts
	// submitted flips when the job reaches its node: from then on the
	// only live references are the inflight set and the job's DoneArg.
	// While false, a dispatch-latency submit event still holds the
	// struct and is responsible for releasing it if disowned.
	submitted bool
}

// deadline is pr's absolute deadline in simNs units.
func (pr *pendingRequest) deadline() int64 {
	return simNs(pr.arrival) + int64(core.DispatchTimeout)
}

// applyAvailability executes one schedule entry.
func (c *Cluster) applyAvailability(e AvailabilityEvent) {
	if c.available[e.Node] == e.Available {
		return
	}
	c.available[e.Node] = e.Available
	c.recomputeView()

	if e.Available {
		return
	}
	// The node went down: abort its processes and report each lost
	// request to its failover rule.
	c.nodes[e.Node].Drain()
	var lost []*pendingRequest
	for _, p := range c.inflight {
		if p.node == e.Node {
			lost = append(lost, p)
		}
	}
	for _, p := range lost {
		c.disown(p)
	}
	// Swap-removes leave the inflight set out of id order; the
	// re-dispatches must not be (each draws on the front end and books
	// the view, so the set's order would leak into the replay).
	sort.Slice(lost, func(i, j int) bool { return lost[i].id < lost[j].id })
	nowNs := simNs(c.eng.Now())
	for _, p := range lost {
		c.failovers++
		out := core.MayHaveRun
		if !p.submitted {
			// Still in the dispatch-latency window: the work never
			// reached the node. That event holds p and will release it,
			// so the request carries on in a copy.
			out = core.NotSent
			cp := c.newPending()
			*cp = *p
			p = cp
		}
		if p.master == e.Node {
			p.master = -1 // the front end picks another master
		}
		if len(p.att.Tried()) == core.RetryBudget {
			// It was running at its master after the budget ran out.
			c.exhausted++
			c.drop(p, obs.KindExhausted, core.RetryBudget)
			continue
		}
		step := p.att.Report(e.Node, out, nowNs)
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.Emit(obs.Event{
				Kind: obs.KindRetry, Req: p.id, Time: c.eng.Now(),
				Node: e.Node, Value: float64(len(p.att.Tried())),
			})
		}
		c.advance(p, step)
	}
}

// recomputeView rebuilds the master/slave lists from roles,
// availability and the autoscaler's power state. Nodes with id <
// roleMasters are master-role. If every master-role node is down, the
// lowest available node is promoted so the cluster keeps accepting
// requests (the hot-standby takeover the paper describes). Under
// sharding, every topology change also rebalances the shard map onto a
// new epoch (see reshard).
func (c *Cluster) recomputeView() {
	masters := c.view.Masters[:0]
	slaves := c.view.Slaves[:0]
	for i := 0; i < c.cfg.Nodes; i++ {
		if !c.available[i] || !c.powered[i] {
			continue
		}
		if i < c.roleMasters {
			masters = append(masters, i)
		} else {
			slaves = append(slaves, i)
		}
	}
	if len(masters) == 0 && len(slaves) > 0 {
		masters = append(masters, slaves[0])
		slaves = slaves[1:]
	}
	c.view.Masters = masters
	c.view.Slaves = slaves
	c.reshard()
}

// Available reports a node's current availability.
func (c *Cluster) Available(node int) bool {
	return node >= 0 && node < len(c.available) && c.available[node]
}
