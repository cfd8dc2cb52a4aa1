// Package workload models user sessions: a browsing user issues a
// chain of requests separated by think times, and — crucially — does
// not issue the next request until the previous response arrives. This
// closed-loop behaviour self-throttles under overload, unlike the
// paper's open-loop trace replay where the offered rate is fixed no
// matter how slow the server gets. msload -closed drives a live cluster
// with these sessions (replay.RunClosed).
package workload

import (
	"fmt"
	"math"

	"msweb/internal/rng"
	"msweb/internal/trace"
)

// Session is one user's visit: a chain of requests issued sequentially
// with think times between a response and the next request.
type Session struct {
	// Start is the session's arrival time in seconds.
	Start float64
	// Requests are issued in order; their Arrival fields are ignored
	// (issue times emerge from responses and think times).
	Requests []trace.Request
	// Thinks[i] is the pause after request i's response before request
	// i+1 is issued; len(Thinks) == len(Requests)−1.
	Thinks []float64
}

// Validate checks structural invariants.
func (s Session) Validate() error {
	if len(s.Requests) == 0 {
		return fmt.Errorf("workload: empty session")
	}
	if len(s.Thinks) != len(s.Requests)-1 {
		return fmt.Errorf("workload: %d thinks for %d requests", len(s.Thinks), len(s.Requests))
	}
	if !finiteNonNegative(s.Start) {
		return fmt.Errorf("workload: bad session start %v", s.Start)
	}
	for i, th := range s.Thinks {
		if !finiteNonNegative(th) {
			return fmt.Errorf("workload: bad think time %v at %d", th, i)
		}
	}
	return nil
}

// finiteNonNegative reports whether x is a usable time: not negative,
// NaN or +Inf.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Config parameterizes session generation.
type Config struct {
	// Profile supplies the request mix and sizes (as in trace.Generate).
	Profile trace.Profile
	// Sessions is the number of sessions to generate.
	Sessions int
	// SessionRate is the session arrival rate (sessions/second, Poisson).
	SessionRate float64
	// MeanRequests is the mean session length (geometric, ≥ 1).
	MeanRequests float64
	// MeanThink is the mean think time between requests (exponential).
	MeanThink float64
	// MuH and R calibrate demands exactly as in trace.GenConfig.
	MuH, R float64
	// Demand selects the demand distribution.
	Demand trace.DemandModel
	// Seed makes generation reproducible.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Sessions <= 0:
		return fmt.Errorf("workload: session count %d must be positive", c.Sessions)
	case c.SessionRate <= 0:
		return fmt.Errorf("workload: session rate %v must be positive", c.SessionRate)
	case c.MeanRequests < 1:
		return fmt.Errorf("workload: mean session length %v must be ≥ 1", c.MeanRequests)
	case !finiteNonNegative(c.MeanThink):
		return fmt.Errorf("workload: mean think time %v must be finite and non-negative", c.MeanThink)
	}
	probe := trace.GenConfig{Profile: c.Profile, Lambda: 1, Requests: 1, MuH: c.MuH, R: c.R}
	return probe.Validate()
}

// Generate builds the sessions. Request contents reuse the trace
// generator so demands, sizes, scripts and cache parameters follow the
// same profile statistics as the open-loop traces.
func Generate(cfg Config) ([]Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Estimate the total request budget, then draw the actual requests
	// from the trace generator and slice them into sessions.
	s := rng.New(cfg.Seed)
	lenS := s.Fork(11)
	startS := s.Fork(12)
	thinkS := s.Fork(13)

	lengths := make([]int, cfg.Sessions)
	total := 0
	pCont := 1 - 1/cfg.MeanRequests // geometric continuation probability
	for i := range lengths {
		n := 1
		for lenS.Bernoulli(pCont) && n < 200 {
			n++
		}
		lengths[i] = n
		total += n
	}

	base, err := trace.Generate(trace.GenConfig{
		Profile:  cfg.Profile,
		Lambda:   1, // arrivals are discarded; only contents matter
		Requests: total,
		MuH:      cfg.MuH,
		R:        cfg.R,
		Demand:   cfg.Demand,
		Seed:     cfg.Seed + 7919,
	})
	if err != nil {
		return nil, err
	}

	sessions := make([]Session, cfg.Sessions)
	now := 0.0
	idx := 0
	for i := range sessions {
		now += startS.Exp(1 / cfg.SessionRate)
		n := lengths[i]
		reqs := make([]trace.Request, n)
		copy(reqs, base.Requests[idx:idx+n])
		idx += n
		thinks := make([]float64, n-1)
		for j := range thinks {
			thinks[j] = thinkS.Exp(cfg.MeanThink)
		}
		sessions[i] = Session{Start: now, Requests: reqs, Thinks: thinks}
	}
	return sessions, nil
}

// TotalRequests sums the request counts of the sessions.
func TotalRequests(sessions []Session) int {
	n := 0
	for _, s := range sessions {
		n += len(s.Requests)
	}
	return n
}
