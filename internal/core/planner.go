package core

// The online Theorem 1 re-planner, shared by the simulator's autoscaler
// and the live master-tier autoscaler. It reads no clock and does no
// I/O: each plane harvests a Window once per control period, asks the
// Planner for the master count and applies the answer itself — the
// simulator by powering nodes and moving the role block, a live master
// by announcing a membership epoch. Demotions wait out exponentially
// distributed hold epochs; growth is never held, so a flash crowd is
// answered within a period while a noisy λ estimate cannot make the
// tier flap. Fleet sizing is a separate step only the
// simulator takes, because only simulated nodes have a power switch.

import (
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

const (
	// slaveFloor is the least number of slave-role nodes a plan leaves,
	// so the cluster always has somewhere to dispatch.
	slaveFloor = 1
	// targetRho is the per-node utilization Fleet sizes the powered
	// fleet for: powered ≈ offered erlangs / targetRho.
	targetRho = 0.6
	// maxPressure caps Fleet's backlog inflation, so a single bad window
	// cannot demand the whole fleet.
	maxPressure = 4
	// holdPeriods is the first hold after an acting period, in control
	// periods; holdCap caps its doubling as a multiple of that first
	// hold. Both are powers of two, so a hold is an exact multiple of
	// the period in floating point.
	holdPeriods = 2
	holdCap     = 16
)

// Window is one control period's measurements: arrivals and
// completions per class, and the service demand the completions
// consumed.
type Window struct {
	ArrivedH, ArrivedC int64
	DoneH, DoneC       int64
	DemandH, DemandC   float64
}

// Arrive counts one arrival of class c.
func (w *Window) Arrive(c trace.Class) {
	if c == trace.Dynamic {
		w.ArrivedC++
	} else {
		w.ArrivedH++
	}
}

// Done counts one completion of class c that consumed demand seconds.
func (w *Window) Done(c trace.Class, demand float64) {
	if c == trace.Dynamic {
		w.DoneC++
		w.DemandC += demand
	} else {
		w.DoneH++
		w.DemandH += demand
	}
}

// Rates estimates Theorem 1's per-class rates from a window of the
// given length: λ from arrivals, μ from completions. P is left to the
// caller. ok is false when a class had no arrival, no completion or no
// demand (a live client may declare a demand of zero).
func (w Window) Rates(seconds float64) (r queuemodel.Params, ok bool) {
	if w.ArrivedH == 0 || w.ArrivedC == 0 || w.DoneH == 0 || w.DoneC == 0 ||
		w.DemandH <= 0 || w.DemandC <= 0 {
		return r, false
	}
	r.LambdaH = float64(w.ArrivedH) / seconds
	r.LambdaC = float64(w.ArrivedC) / seconds
	r.MuH = float64(w.DoneH) / w.DemandH
	r.MuC = float64(w.DoneC) / w.DemandC
	return r, true
}

// Planner is the re-planner's state between control periods: the
// m clamps and the demotion hold. Its zero value plans with no clamps
// beyond [1, p−1]. Times are seconds on the caller's clock.
type Planner struct {
	// MinM/MaxM clamp the planned master count; 0 leaves that side to
	// the structural bounds.
	MinM, MaxM int
	hold       int     // length of the next hold, in periods; 0 = holdPeriods
	until      float64 // demotions wait while now < until
}

// Fleet sizes the powered fleet for window w with rates r: its offered
// erlangs over targetRho, never below MinM masters plus the slave floor
// (and at least one master) nor above nodes. When completions lag
// arrivals the fleet is burning down a backlog the arrival rate alone
// cannot see, so the offered load is inflated by the deficit ratio,
// capped at maxPressure.
func (pl *Planner) Fleet(w Window, r queuemodel.Params, nodes int) int {
	offered := r.LambdaH/r.MuH + r.LambdaC/r.MuC
	if pressure := float64(w.ArrivedH+w.ArrivedC) / float64(w.DoneH+w.DoneC); pressure > 1 {
		offered *= min(pressure, maxPressure)
	}
	floor := max(pl.MinM, 1) + slaveFloor
	return min(max(int(offered/targetRho)+1, floor), nodes)
}

// Plan returns the master count for the next period on r.P nodes with
// cur masters now: Theorem 1's optimal m for r (cur when r has no
// optimal split), clamped to [MinM, MaxM], to leave slaveFloor slaves
// and to at least one master. held reports a hold epoch in force at
// now; during one a demotion is deferred and cur kept.
func (pl *Planner) Plan(r queuemodel.Params, cur int, now float64) (m int, held bool) {
	m = cur
	if plan, err := r.OptimalPlan(); err == nil {
		m = plan.M
	}
	m = max(m, pl.MinM)
	if pl.MaxM > 0 {
		m = min(m, pl.MaxM)
	}
	m = max(min(m, r.P-slaveFloor), 1)
	held = now < pl.until
	if m < cur && held {
		m = cur
	}
	return m, held
}

// Settle closes a period at now. A period that acted opens a hold epoch
// of the current length and doubles the length for the next one, up to
// the cap; a quiet period halves it back toward holdPeriods.
func (pl *Planner) Settle(acted bool, now, period float64) {
	pl.hold = max(pl.hold, holdPeriods)
	if acted {
		pl.until = now + float64(pl.hold)*period
		pl.hold = min(2*pl.hold, holdCap*holdPeriods)
	} else {
		pl.hold = max(pl.hold/2, holdPeriods)
	}
}
