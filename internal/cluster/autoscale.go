package cluster

// Online autoscaler: the simulator's call site of core.Planner, the
// Theorem 1 re-planner both planes share. It closes the loop the paper
// leaves open: besides re-planning the master/slave split it sizes the
// fleet itself. Every Period it harvests the window, lets the planner
// size the powered fleet (Planner.Fleet) and plan the master count on
// it (Planner.Plan), and powers slaves on and off to match. The
// planner's hold epochs defer power-offs as they defer demotions.
//
// Scale-down switches off the powered slave with the highest node id
// first; scale-up switches on the unpowered slave with the lowest id
// first, so every decision is deterministic. A plan is applied whole:
// the power and role state take every change, then the view (and, under
// sharding, the shard map) is recomputed once, so one plan is one
// epoch, as on the live plane.
//
// Powering off is graceful, unlike a crash: the node leaves every
// placement view (and the shard map, at the plan's epoch) so nothing
// new lands on it, but it finishes the work it holds and is never
// drained.

import "msweb/internal/core"

// Autoscale configures the online autoscaler (Config.Autoscale).
type Autoscale struct {
	// Period between control decisions in seconds.
	Period float64
	// MinM/MaxM clamp the planned master count (defaults 1 and p−1).
	MinM, MaxM int
}

// AutoscaleStats reports one run's autoscaler activity.
type AutoscaleStats struct {
	// Promotions/Demotions accumulate master-count increases/decreases
	// (in masters, not decisions).
	Promotions, Demotions int64
	// SlaveOns/SlaveOffs count node power transitions.
	SlaveOns, SlaveOffs int64
	// HeldTicks counts control periods where a wanted scale-down was
	// deferred by a hold epoch.
	HeldTicks int64
	// FinalPowered is the powered fleet size at the end of the run.
	FinalPowered int
}

// observeSLO books one counted sample against the configured
// response-time SLO (no-op when unset).
func (c *Cluster) observeSLO(response float64) {
	if c.cfg.SLOResponse <= 0 {
		return
	}
	c.sloN++
	if response <= c.cfg.SLOResponse {
		c.sloOK++
	}
}

// accrueNodeSeconds integrates powered-node time up to now. Call before
// every poweredCount change and once at the end of the run.
func (c *Cluster) accrueNodeSeconds(now float64) {
	if now > c.lastPowerAt {
		c.nodeSeconds += float64(c.poweredCount) * (now - c.lastPowerAt)
		c.lastPowerAt = now
	}
}

// setPowered flips one node's power state. It leaves the view alone:
// the autoscaler writes a whole plan, then recomputes the view (and,
// under sharding, the shard map) once. Graceful: a node powering off
// keeps running what it holds.
func (c *Cluster) setPowered(node int, on bool) {
	c.accrueNodeSeconds(c.eng.Now())
	c.powered[node] = on
	if on {
		c.poweredCount++
	} else {
		c.poweredCount--
	}
}

// autoscaleTick is the controller loop body: harvest the window, let
// the shared planner size the fleet and plan m on it, then apply the
// plan as one topology change — one view recompute, one shard-map
// epoch, as the live autoscaler announces one membership per plan.
func (c *Cluster) autoscaleTick() {
	period := c.cfg.Autoscale.Period
	now := c.eng.Now()
	w := c.win
	c.win = core.Window{}
	r, ok := w.Rates(period)
	if !ok {
		return // not enough signal this window
	}
	target := c.as.Fleet(w, r, c.cfg.Nodes)
	r.P = target
	m, held := c.as.Plan(r, c.roleMasters, now)
	acted := false

	// Masters first: the slave sizing below counts the role block's
	// power-ons in poweredCount.
	for id := 0; id < m; id++ {
		if !c.powered[id] {
			c.setPowered(id, true)
			c.asStats.SlaveOns++
			acted = true
		}
	}
	if m != c.roleMasters {
		if m > c.roleMasters {
			c.asStats.Promotions += int64(m - c.roleMasters)
		} else {
			c.asStats.Demotions += int64(c.roleMasters - m)
		}
		c.roleMasters = m
		acted = true
	}

	// Then size the slave tier to the target total. The hold that defers
	// a demotion defers powering off too.
	if c.poweredCount > target && held {
		c.asStats.HeldTicks++
	} else if c.poweredCount > target {
		for id := c.cfg.Nodes - 1; id >= c.roleMasters && c.poweredCount > target; id-- {
			if c.powered[id] {
				c.setPowered(id, false)
				c.asStats.SlaveOffs++
				acted = true
			}
		}
	} else if c.poweredCount < target {
		for id := c.roleMasters; id < c.cfg.Nodes && c.poweredCount < target; id++ {
			if !c.powered[id] {
				c.setPowered(id, true)
				c.asStats.SlaveOns++
				acted = true
			}
		}
	}
	if acted {
		c.recomputeView()
	}
	c.as.Settle(acted, now, period)
}
