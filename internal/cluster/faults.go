package cluster

// Fault tolerance and dynamic resource recruitment. The paper motivates
// the master/slave architecture with exactly these abilities: slave
// nodes "may be non-dedicated and recruited dynamically when they become
// idle", and "if a slave node fails, a master node may need to restart a
// dynamic content process on another node". This file adds both to the
// simulated cluster: an availability schedule takes nodes down (crash or
// reclamation) and brings them up (recovery or recruitment), and the
// dispatcher restarts the lost in-flight requests elsewhere after a
// failover-detection delay.

import (
	"fmt"
	"sort"

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

// pendingRequest records an in-flight request so it can be restarted if
// its execution node fails. Structs recycle through Cluster.freePending;
// slot decides ownership: the struct's index in c.inflight while the
// cluster owns it, −1 once a failure handler has disowned it.
type pendingRequest struct {
	id      int64
	slot    int
	req     trace.Request
	node    int
	arrival float64
	count   bool
	// submitted flips when the job reaches its node: from then on the
	// only live references are the inflight set and the job's DoneArg.
	// While false, a dispatch-latency submit event still holds the
	// struct and is responsible for releasing it if disowned.
	submitted bool
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
	// The node went down: abort its processes and restart the lost
	// requests elsewhere after the failover-detection delay.
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
	// Swap-removes leave the inflight set out of id order; the restarts
	// must not be (their After events tie on time and fall back to
	// insertion order, which would leak the set's order into the replay).
	sort.Slice(lost, func(i, j int) bool { return lost[i].id < lost[j].id })
	for _, p := range lost {
		c.failovers++
		// Copy the restart parameters out: once submitted, the struct's
		// job died with the drained node and we hold the last reference,
		// so it recycles now. Unsubmitted structs are still referenced
		// by their dispatch-latency event, which will find itself
		// disowned and release them.
		req, count, arrival := p.req, p.count, p.arrival
		if p.submitted {
			c.releasePending(p)
		}
		c.eng.After(retryDelay, func() { c.dispatchAt(req, count, arrival) })
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
