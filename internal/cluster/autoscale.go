package cluster

// Online autoscaler, the simulator's one online Theorem 1 re-planner. It
// closes the loop the paper leaves open: besides re-planning the
// master/slave split it sizes the fleet itself. Every Period it
// re-estimates the offered load from the completed window, chooses how
// many nodes are worth powering at all (offered erlangs over a target
// utilization), re-runs Theorem 1's numeric minimization for the master
// count on that fleet, and powers slaves on and off to match.
//
// Two classic ingredients keep it stable. Scale-down follows the c/μ
// rule: the slowest slaves (lowest speed factor) are switched off
// first, so the surviving capacity per watt is maximal; ties break
// toward the highest node id, and scale-up mirrors the order, so every
// decision is deterministic. And shrinking is rate-limited by
// exponential hold epochs in the MSR dynamic-provisioning style: after
// any action the controller holds scale-downs for asHold seconds and
// doubles the hold (up to 16× the initial hold of two periods); quiet
// ticks decay it back toward the initial hold. Scale-up is never held —
// a flash crowd is answered within a control period, while a noisy λ
// estimate cannot make the fleet flap off.
//
// Powering off is graceful, unlike a crash: the node leaves every
// placement view (and the shard map, on a new epoch) so nothing new
// lands on it, but it finishes the work it holds and is never drained.

import (
	"cmp"
	"slices"

	"msweb/internal/queuemodel"
)

// Autoscale configures the online autoscaler (Config.Autoscale).
type Autoscale struct {
	// Period between control decisions in seconds.
	Period float64
	// MinM/MaxM clamp the planned master count (defaults 1 and p−1).
	MinM, MaxM int
}

// The autoscaler's fixed settings.
const (
	// asSlaveFloor is the floor on powered slave-role nodes, so the
	// cluster always has somewhere to dispatch.
	asSlaveFloor = 1
	// asTargetRho is the per-node utilization the powered fleet is sized
	// for: powered ≈ offered-erlangs / asTargetRho.
	asTargetRho = 0.6
	// asHoldPeriods is the first hold-epoch length after an action, in
	// control periods; asHoldCap caps the exponential growth as a
	// multiple of that first hold.
	asHoldPeriods = 2
	asHoldCap     = 16
)

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

// setPowered flips one node's power state and recomputes the view (and,
// under sharding, the shard map epoch). Graceful: a node powering off
// keeps running what it holds.
func (c *Cluster) setPowered(node int, on bool) {
	if c.powered[node] == on {
		return
	}
	c.accrueNodeSeconds(c.eng.Now())
	c.powered[node] = on
	if on {
		c.poweredCount++
	} else {
		c.poweredCount--
	}
	c.recomputeView()
}

// nodeSpeed is the configured speed factor (1 when homogeneous).
func (c *Cluster) nodeSpeed(id int) float64 {
	if c.cfg.Speeds != nil {
		return c.cfg.Speeds[id]
	}
	return 1
}

// autoscaleTick is the controller loop body.
func (c *Cluster) autoscaleTick() {
	as := c.cfg.Autoscale
	now := c.eng.Now()

	// Harvest and reset the measurement window.
	stat, dyn := c.winStatic, c.winDynamic
	doneH, doneC := c.winDoneH, c.winDoneC
	demH, demC := c.winDemandH, c.winDemandC
	c.winStatic, c.winDynamic = 0, 0
	c.winDoneH, c.winDoneC, c.winDemandH, c.winDemandC = 0, 0, 0, 0

	if stat == 0 || dyn == 0 || doneH == 0 || doneC == 0 {
		return // not enough signal this window
	}

	lambdaH := float64(stat) / as.Period
	lambdaC := float64(dyn) / as.Period
	muH := float64(doneH) / demH
	muC := float64(doneC) / demC

	// Offered load in erlangs → powered fleet size at the target
	// utilization, never below the structural floor or above the fleet.
	// When completions lag arrivals the fleet is burning down a backlog
	// the arrival rate alone cannot see; inflate the estimate by the
	// deficit ratio (capped — a single bad window must not demand the
	// whole fleet) so a flash crowd is answered within a period or two.
	offered := lambdaH/muH + lambdaC/muC
	if pressure := float64(stat+dyn) / float64(doneH+doneC); pressure > 1 {
		if pressure > 4 {
			pressure = 4
		}
		offered *= pressure
	}
	minPowered := as.MinM + asSlaveFloor
	if min := 1 + asSlaveFloor; minPowered < min {
		minPowered = min
	}
	target := int(offered/asTargetRho) + 1
	if target < minPowered {
		target = minPowered
	}
	if target > c.cfg.Nodes {
		target = c.cfg.Nodes
	}

	// Theorem 1 on the powered fleet: how many of those nodes masters.
	m := c.roleMasters
	params := queuemodel.Params{
		P: target, LambdaH: lambdaH, LambdaC: lambdaC, MuH: muH, MuC: muC,
	}
	if plan, err := params.OptimalPlan(); err == nil {
		m = plan.M
	}
	if min := as.MinM; min > 0 && m < min {
		m = min
	}
	max := as.MaxM
	if max <= 0 {
		max = c.cfg.Nodes - 1
	}
	if m > max {
		m = max
	}
	if m > target-asSlaveFloor {
		m = target - asSlaveFloor
	}
	if m < 1 {
		m = 1
	}

	// Hold epochs gate only the shrink direction: a flash crowd must be
	// answered within a period, while giving capacity back can always
	// wait out the hold.
	held := now < c.asHoldUntil
	if m < c.roleMasters && held {
		m = c.roleMasters // demotion deferred
	}
	acted := false

	// Masters first: the role block 0..m−1 must be powered before the
	// view recomputes around it.
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
		c.setMasters(m)
		acted = true
	}

	// Then size the slave tier to the target total.
	if c.poweredCount > target && held {
		c.asStats.HeldTicks++
	} else if c.poweredCount > target {
		off := c.scaleDownOrder()
		for _, id := range off {
			if c.poweredCount <= target {
				break
			}
			c.setPowered(id, false)
			c.asStats.SlaveOffs++
			acted = true
		}
	} else if c.poweredCount < target {
		on := c.scaleUpOrder()
		for _, id := range on {
			if c.poweredCount >= target {
				break
			}
			c.setPowered(id, true)
			c.asStats.SlaveOns++
			acted = true
		}
	}

	// Hold-epoch hysteresis: an action opens a hold that doubles with
	// each acting tick; quiet ticks decay it back.
	holdMin := asHoldPeriods * as.Period
	if acted {
		c.asHoldUntil = now + c.asHold
		if c.asHold = 2 * c.asHold; c.asHold > asHoldCap*holdMin {
			c.asHold = asHoldCap * holdMin
		}
	} else if c.asHold > holdMin {
		c.asHold = c.asHold / 2
		if c.asHold < holdMin {
			c.asHold = holdMin
		}
	}
}

// scaleDownOrder lists powered slave-role nodes in switch-off order:
// the c/μ rule powers off the slowest first (least service rate per
// powered node), ties to the highest id. Deterministic by construction.
// The list lives in a scratch slice the next ordering overwrites.
func (c *Cluster) scaleDownOrder() []int {
	return c.leastValuableFirst(true)
}

// scaleUpOrder mirrors scaleDownOrder: fastest unpowered node first,
// ties to the lowest id.
func (c *Cluster) scaleUpOrder() []int {
	ids := c.leastValuableFirst(false)
	slices.Reverse(ids)
	return ids
}

// leastValuableFirst sorts the slave-role nodes in the given power state
// by (speed ascending, id descending) into the autoscaler's scratch
// slice.
func (c *Cluster) leastValuableFirst(powered bool) []int {
	ids := c.asOrder[:0]
	for id := c.roleMasters; id < c.cfg.Nodes; id++ {
		if c.powered[id] == powered {
			ids = append(ids, id)
		}
	}
	c.asOrder = ids
	slices.SortFunc(ids, func(a, b int) int {
		if sa, sb := c.nodeSpeed(a), c.nodeSpeed(b); sa != sb {
			return cmp.Compare(sa, sb)
		}
		return cmp.Compare(b, a)
	})
	return ids
}
