package metrics

import "math"

// UtilizationTracker integrates a busy/idle signal over virtual time and
// reports the time-weighted busy fraction. Simulated OS components use one
// tracker per resource (CPU, disk) to expose the CPUIdleRatio and
// DiskAvailRatio that the RSRC cost formula consumes.
type UtilizationTracker struct {
	lastTime  float64
	busySince float64
	busy      bool
	busyTotal float64
	// window state for periodic sampling (rstat-like)
	windowStart float64
	windowBusy  float64
}

// NewUtilizationTracker returns a tracker with the clock at start.
func NewUtilizationTracker(start float64) *UtilizationTracker {
	return &UtilizationTracker{lastTime: start, windowStart: start}
}

// SetBusy records a transition of the resource's busy state at time now.
// Calls must have non-decreasing now.
func (u *UtilizationTracker) SetBusy(now float64, busy bool) {
	u.accumulate(now)
	u.busy = busy
	if busy {
		u.busySince = now
	}
}

func (u *UtilizationTracker) accumulate(now float64) {
	if now < u.lastTime {
		now = u.lastTime
	}
	if u.busy {
		dt := now - u.lastTime
		u.busyTotal += dt
		u.windowBusy += dt
	}
	u.lastTime = now
}

// BusyFraction returns the lifetime busy fraction up to now.
func (u *UtilizationTracker) BusyFraction(now float64) float64 {
	u.accumulate(now)
	total := u.lastTime
	if total <= 0 {
		return 0
	}
	return u.busyTotal / total
}

// WindowSample returns the busy fraction since the previous WindowSample
// call (or construction) and resets the window — the analogue of reading
// rstat() counters periodically. An empty window reports the current
// instantaneous state (1 if busy, 0 if idle).
func (u *UtilizationTracker) WindowSample(now float64) float64 {
	u.accumulate(now)
	span := u.lastTime - u.windowStart
	var frac float64
	if span <= 0 {
		if u.busy {
			frac = 1
		}
	} else {
		frac = u.windowBusy / span
	}
	u.windowStart = u.lastTime
	u.windowBusy = 0
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// EWMA is an exponentially-weighted moving average used for smoothing
// load-index samples before they feed the RSRC estimate.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha weights recent samples more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &EWMA{alpha: alpha}
}

// Update folds a sample into the average and returns the new value.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before the first sample).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been folded in.
func (e *EWMA) Initialized() bool { return e.init }
