package workload

import (
	"math"
	"testing"
	"testing/quick"

	"msweb/internal/trace"
)

func baseConfig() Config {
	return Config{
		Profile:      trace.KSU,
		Sessions:     200,
		SessionRate:  10,
		MeanRequests: 8,
		MeanThink:    0.5,
		MuH:          1200,
		R:            1.0 / 40,
		Seed:         1,
	}
}

func TestGenerateSessions(t *testing.T) {
	sessions, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 200 {
		t.Fatalf("%d sessions, want 200", len(sessions))
	}
	for i, s := range sessions {
		if err := s.Validate(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	// Session starts are sorted (Poisson arrivals).
	for i := 1; i < len(sessions); i++ {
		if sessions[i].Start < sessions[i-1].Start {
			t.Fatal("session starts unsorted")
		}
	}
}

func TestSessionLengthMean(t *testing.T) {
	cfg := baseConfig()
	cfg.Sessions = 2000
	sessions, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(TotalRequests(sessions)) / float64(len(sessions))
	if math.Abs(mean-8) > 0.8 {
		t.Fatalf("mean session length %.2f, want ~8", mean)
	}
}

func TestThinkTimeMean(t *testing.T) {
	cfg := baseConfig()
	cfg.Sessions = 1000
	sessions, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for _, s := range sessions {
		for _, th := range s.Thinks {
			sum += th
			n++
		}
	}
	if n == 0 {
		t.Fatal("no think times generated")
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("mean think %.3f, want ~0.5", mean)
	}
}

func TestRequestsFollowProfile(t *testing.T) {
	cfg := baseConfig()
	cfg.Sessions = 1000
	sessions, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dyn, total := 0, 0
	for _, s := range sessions {
		for _, r := range s.Requests {
			total++
			if r.Class == trace.Dynamic {
				dyn++
			}
		}
	}
	frac := float64(dyn) / float64(total)
	if math.Abs(frac-0.291) > 0.03 {
		t.Fatalf("dynamic fraction %.3f, profile wants 0.291", frac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Start != b[i].Start || len(a[i].Requests) != len(b[i].Requests) {
			t.Fatalf("session %d differs across identical seeds", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Sessions = 0 },
		func(c *Config) { c.SessionRate = 0 },
		func(c *Config) { c.MeanRequests = 0.5 },
		func(c *Config) { c.MeanThink = -1 },
		func(c *Config) { c.MeanThink = math.NaN() },
		func(c *Config) { c.MeanThink = math.Inf(1) },
		func(c *Config) { c.MuH = 0 },
		func(c *Config) { c.R = 0 },
	}
	for i, mutate := range cases {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestSessionValidate(t *testing.T) {
	good := Session{Start: 1, Requests: make([]trace.Request, 2), Thinks: []float64{0.1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Session{Start: 1}
	if bad.Validate() == nil {
		t.Fatal("empty session accepted")
	}
	bad2 := Session{Start: 1, Requests: make([]trace.Request, 2), Thinks: nil}
	if bad2.Validate() == nil {
		t.Fatal("mismatched thinks accepted")
	}
	bad3 := Session{Start: -1, Requests: make([]trace.Request, 1)}
	if bad3.Validate() == nil {
		t.Fatal("negative start accepted")
	}
	bad4 := Session{Start: 0, Requests: make([]trace.Request, 2), Thinks: []float64{-1}}
	if bad4.Validate() == nil {
		t.Fatal("negative think accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		if (Session{Start: x, Requests: make([]trace.Request, 1)}).Validate() == nil {
			t.Fatalf("start %v accepted", x)
		}
		if (Session{Requests: make([]trace.Request, 2), Thinks: []float64{x}}).Validate() == nil {
			t.Fatalf("think %v accepted", x)
		}
	}
}

// Property: every generated batch validates and total request count is
// consistent.
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		cfg := baseConfig()
		cfg.Seed = seed
		cfg.Sessions = 1 + int(nRaw%50)
		sessions, err := Generate(cfg)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range sessions {
			if s.Validate() != nil {
				return false
			}
			total += len(s.Requests)
		}
		return total == TotalRequests(sessions) && len(sessions) == cfg.Sessions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
