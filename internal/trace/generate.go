package trace

import (
	"fmt"
	"math"

	"msweb/internal/rng"
)

// Profile captures everything the paper extracts from one of its logs:
// the class mix, the response-size statistics, and the CPU/I-O character
// of the synthetic CGI workload that replaces the log's opaque scripts.
type Profile struct {
	Name        string
	DynamicFrac float64 // fraction of requests that are CGI
	// CPUWeight is the mean w of the replacement CGI workload:
	// UCB → 0.95 (WebSTONE busy-spin), KSU → 0.90 (WebGlimpse index
	// search, ~90% CPU), ADL → 0.10 (catalog database, ~90% disk).
	CPUWeight   float64
	CPUWeightSD float64 // per-script spread of w
	// MeanHTMLSize / MeanCGISize are the Table 1 mean response sizes.
	MeanHTMLSize float64
	MeanCGISize  float64
	// NumScripts is how many distinct CGI programs the site runs;
	// off-line w sampling happens per script.
	NumScripts int
	// MemPagesMean is the mean resident set of a CGI process in pages.
	MemPagesMean int
	// CacheableFrac is the fraction of CGI requests whose responses are
	// cacheable (repeatable parameters); 0 disables caching entirely,
	// as for UCB's unique generated documents.
	CacheableFrac float64
	// ParamCardinality is the number of distinct parameter values per
	// script, drawn with Zipf(ParamZipfTheta) popularity.
	ParamCardinality int
	ParamZipfTheta   float64
	// LogInterval is the historical mean inter-arrival time (Table 1),
	// retained for the Table 1 report; replay always rescales it.
	LogInterval float64
	// LogRequests is the historical request count (Table 1).
	LogRequests int64
}

// ArrivalRatio returns a = λ_c/λ_h implied by the class mix.
func (p Profile) ArrivalRatio() float64 {
	if p.DynamicFrac >= 1 {
		return math.Inf(1)
	}
	return p.DynamicFrac / (1 - p.DynamicFrac)
}

// The paper's trace profiles (Table 1). DEC appears in Table 1 but is not
// replayed (its CGI mix duplicates UCB's and its URLs are scrambled).
var (
	// UCB is the UC Berkeley Home IP trace: light CGI mix whose scripts
	// are replaced by the WebSTONE CPU-spinning generator.
	UCB = Profile{
		Name: "UCB", DynamicFrac: 0.112, CPUWeight: 0.95, CPUWeightSD: 0.03,
		MeanHTMLSize: 7519, MeanCGISize: 4591, NumScripts: 8, MemPagesMean: 128,
		LogInterval: 0.139, LogRequests: 9_200_000,
	}
	// KSU is the Kansas State online-library trace; CGI replaced by
	// WebGlimpse searches over a ~10000-item index, ~90% CPU.
	KSU = Profile{
		Name: "KSU", DynamicFrac: 0.291, CPUWeight: 0.90, CPUWeightSD: 0.05,
		MeanHTMLSize: 482, MeanCGISize: 8730, NumScripts: 4, MemPagesMean: 192,
		CacheableFrac: 0.7, ParamCardinality: 400, ParamZipfTheta: 0.8,
		LogInterval: 18.486, LogRequests: 47_364,
	}
	// ADL is the Alexandria Digital Library trace; CGI replaced by a
	// replicated catalog database, ~90% disk I/O.
	ADL = Profile{
		Name: "ADL", DynamicFrac: 0.443, CPUWeight: 0.10, CPUWeightSD: 0.05,
		MeanHTMLSize: 2186, MeanCGISize: 2027, NumScripts: 6, MemPagesMean: 256,
		CacheableFrac: 0.5, ParamCardinality: 800, ParamZipfTheta: 0.8,
		LogInterval: 22.418, LogRequests: 73_610,
	}
	// DEC is Digital's proxy trace, reported in Table 1 only.
	DEC = Profile{
		Name: "DEC", DynamicFrac: 0.087, CPUWeight: 0.5, CPUWeightSD: 0.1,
		MeanHTMLSize: 8821, MeanCGISize: 5735, NumScripts: 8, MemPagesMean: 128,
		LogInterval: 0.09, LogRequests: 24_500_000,
	}
)

// Profiles returns the replayed profiles in the paper's order.
func Profiles() []Profile { return []Profile{UCB, KSU, ADL} }

// ProfileByName looks a profile up by its Table 1 name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range []Profile{UCB, KSU, ADL, DEC} {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// DemandModel selects the service-demand distribution of generated
// requests.
type DemandModel int

const (
	// ExponentialDemand draws exponential demands, matching the
	// Section 3 queueing model. The default.
	ExponentialDemand DemandModel = iota
	// ParetoDemand draws bounded-Pareto demands (α = 1.5, spanning
	// [mean/10, mean·50]), the heavy-tailed regime of the task-
	// assignment literature the paper cites.
	ParetoDemand
	// DeterministicDemand uses the mean exactly; useful in tests.
	DeterministicDemand
)

// ArrivalModel selects the arrival process of generated traces.
type ArrivalModel int

const (
	// PoissonArrivals is the stationary process of the Section 3
	// model. The default.
	PoissonArrivals ArrivalModel = iota
	// MMPPArrivals is a two-state Markov-modulated Poisson process:
	// normal periods at the base rate alternate with flash-crowd
	// bursts at BurstFactor times the base rate. The long-run mean
	// rate stays Lambda.
	MMPPArrivals
	// DiurnalArrivals modulates the rate sinusoidally with period
	// DiurnalPeriod (mean rate Lambda), the day/night pattern of a
	// public Web site.
	DiurnalArrivals
)

// GenConfig parameterizes trace synthesis.
type GenConfig struct {
	Profile Profile
	// Lambda is the total arrival rate in requests/second; the paper
	// replays each log at several scaled rates (Table 2).
	Lambda float64
	// Arrival selects the arrival process; Poisson when zero.
	Arrival ArrivalModel
	// BurstFactor (MMPP) is the peak-to-base rate ratio (default 3).
	BurstFactor float64
	// BurstDuration and NormalDuration (MMPP) are the mean sojourn
	// times of the two states in seconds (defaults 5 and 20).
	BurstDuration, NormalDuration float64
	// DiurnalPeriod (Diurnal) is the modulation period in seconds
	// (default 60).
	DiurnalPeriod float64
	// Requests is the number of records to generate.
	Requests int
	// MuH is the per-node static service rate (1200 req/s in the
	// simulation parameter setting); mean static demand is 1/MuH.
	MuH float64
	// R is the service-rate ratio μ_c/μ_h; mean dynamic demand is
	// 1/(R·MuH). Table 2 examines 1/20 … 1/160.
	R float64
	// Demand selects the demand distribution.
	Demand DemandModel
	// Seed makes generation reproducible.
	Seed int64
}

// Validate reports configuration errors. Every floating-point parameter
// must be finite: a NaN passes each range check below and would become
// NaN arrivals, demands or weights.
func (c GenConfig) Validate() error {
	p := c.Profile
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"arrival rate", c.Lambda}, {"static service rate", c.MuH}, {"service ratio", c.R},
		{"burst factor", c.BurstFactor}, {"burst duration", c.BurstDuration},
		{"normal duration", c.NormalDuration}, {"diurnal period", c.DiurnalPeriod},
		{"dynamic fraction", p.DynamicFrac}, {"CPU weight", p.CPUWeight},
		{"CPU weight spread", p.CPUWeightSD}, {"mean HTML size", p.MeanHTMLSize},
		{"mean CGI size", p.MeanCGISize}, {"cacheable fraction", p.CacheableFrac},
		{"parameter Zipf exponent", p.ParamZipfTheta},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: %s %v is not finite", f.name, f.v)
		}
	}
	switch {
	case c.Lambda <= 0:
		return fmt.Errorf("trace: arrival rate %v must be positive", c.Lambda)
	case c.Requests <= 0:
		return fmt.Errorf("trace: request count %d must be positive", c.Requests)
	case c.MuH <= 0:
		return fmt.Errorf("trace: static service rate %v must be positive", c.MuH)
	case c.R <= 0 || c.R > 1:
		return fmt.Errorf("trace: service ratio %v outside (0, 1]", c.R)
	case c.Profile.DynamicFrac < 0 || c.Profile.DynamicFrac > 1:
		return fmt.Errorf("trace: dynamic fraction %v outside [0, 1]", c.Profile.DynamicFrac)
	case c.Profile.NumScripts < 1:
		return fmt.Errorf("trace: profile needs at least one script")
	case c.Arrival == MMPPArrivals && c.BurstFactor < 0:
		return fmt.Errorf("trace: negative burst factor")
	case c.Arrival == DiurnalArrivals && c.DiurnalPeriod < 0:
		return fmt.Errorf("trace: negative diurnal period")
	}
	return nil
}

// arrivalProcess returns a stateful next-interval function for the
// configured arrival model, normalized so the long-run rate is Lambda.
func arrivalProcess(cfg GenConfig, s *rng.Stream) func(now float64) float64 {
	switch cfg.Arrival {
	case MMPPArrivals:
		factor := cfg.BurstFactor
		if factor <= 0 {
			factor = 3
		}
		burstDur := cfg.BurstDuration
		if burstDur <= 0 {
			burstDur = 5
		}
		normalDur := cfg.NormalDuration
		if normalDur <= 0 {
			normalDur = 20
		}
		// Choose the two state rates so the time-weighted mean is Lambda:
		// (normalDur·λn + burstDur·λn·factor) / (normalDur+burstDur) = Lambda.
		lambdaN := cfg.Lambda * (normalDur + burstDur) / (normalDur + burstDur*factor)
		lambdaB := lambdaN * factor
		inBurst := false
		stateLeft := s.Exp(normalDur)
		return func(now float64) float64 {
			rate := lambdaN
			if inBurst {
				rate = lambdaB
			}
			iv := s.Exp(1 / rate)
			stateLeft -= iv
			for stateLeft < 0 {
				inBurst = !inBurst
				if inBurst {
					stateLeft += s.Exp(burstDur)
				} else {
					stateLeft += s.Exp(normalDur)
				}
			}
			return iv
		}
	case DiurnalArrivals:
		period := cfg.DiurnalPeriod
		if period <= 0 {
			period = 60
		}
		return func(now float64) float64 {
			// Thinning-free approximation: modulate the local rate by
			// 1 + 0.6·sin; the sine integrates to zero over a period,
			// preserving the mean rate.
			rate := cfg.Lambda * (1 + 0.6*math.Sin(2*math.Pi*now/period))
			if rate < 0.05*cfg.Lambda {
				rate = 0.05 * cfg.Lambda
			}
			return s.Exp(1 / rate)
		}
	default:
		return func(float64) float64 { return s.Exp(1 / cfg.Lambda) }
	}
}

// Generate synthesizes a trace: Poisson arrivals at the configured rate,
// class mix and sizes from the profile, demands from the demand model,
// and per-script CPU weights sampled once per script (the ground truth
// that off-line w sampling estimates).
//
// Generation reads six independent substreams of the seed (arrival,
// class, size, demand, script, param) and draws each record's fields on
// two goroutines, each writing its own fields of the one record slice:
// drawWork on a new goroutine and drawSizes on the caller's. Every
// stream except the class stream is read by exactly one of them, in
// record order; both need the class sequence, so each reads its own copy
// of the class stream built from the same derived seed. Every draw is
// therefore the one a single sequential loop makes, and the trace is the
// same bit for bit on any number of cores.
func Generate(cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Seeding a stream costs about as much as drawing a hundred records,
	// so each worker seeds its own streams; only the derivations, which
	// must follow this order, run here.
	s := rng.New(cfg.Seed)
	arrivalSeed, classSeed, sizeSeed := s.ForkSeed(1), s.ForkSeed(2), s.ForkSeed(3)
	demandSeed, scriptSeed, paramSeed := s.ForkSeed(4), s.ForkSeed(5), s.ForkSeed(6)

	reqs := make([]Request, cfg.Requests)
	done := make(chan struct{})
	go func() {
		defer close(done)
		drawWork(cfg, reqs, rng.New(classSeed), rng.New(arrivalSeed),
			rng.New(demandSeed), rng.New(scriptSeed), rng.New(paramSeed))
	}()
	drawSizes(cfg.Profile, reqs, rng.New(classSeed), rng.New(sizeSeed))
	<-done
	return &Trace{Name: cfg.Profile.Name, Requests: reqs}, nil
}

// drawWork fills in each record's ID, Arrival, Demand, Script, CPUWeight
// and Param: everything drawn from the arrival, demand, script and param
// streams. classS must replay the class stream drawSizes reads.
func drawWork(cfg GenConfig, reqs []Request, classS, arrivalS, demandS, scriptS, paramS *rng.Stream) {
	p := cfg.Profile
	var paramZipf *rng.Zipf
	if p.ParamCardinality > 0 {
		paramZipf = paramS.NewZipf(p.ParamCardinality, p.ParamZipfTheta)
	}

	// Ground-truth per-script CPU weights.
	weights := make([]float64, p.NumScripts)
	for i := range weights {
		weights[i] = clamp01(scriptS.Normal(p.CPUWeight, p.CPUWeightSD))
	}

	meanDH := 1 / cfg.MuH
	meanDC := 1 / (cfg.R * cfg.MuH)
	// Every request has a minimum protocol cost: parsing, connection
	// handling, one buffer copy. Demands are floored at 12% of the class
	// mean with the exponential shifted to preserve the mean — without
	// this, near-zero demands produce unbounded stretch outliers that no
	// physical server exhibits.
	drawDemand := func(mean float64) float64 {
		switch cfg.Demand {
		case ParetoDemand:
			// Bounded Pareto on [L, 500L] with α=1.5 has mean ≈ 2.866·L
			// (closed form of the truncated Pareto expectation), so L is
			// set to mean/2.866 to hit the requested mean.
			lo := mean / 2.866
			return demandS.BoundedPareto(lo, 500*lo, 1.5)
		case DeterministicDemand:
			return mean
		default:
			floor := 0.12 * mean
			return floor + demandS.Exp(mean-floor)
		}
	}

	nextInterval := arrivalProcess(cfg, arrivalS)
	now := 0.0
	for i := range reqs {
		r := &reqs[i]
		now += nextInterval(now)
		r.ID, r.Arrival = int64(i), now
		if classS.Bernoulli(p.DynamicFrac) {
			r.Script = 1 + scriptS.Intn(p.NumScripts)
			r.CPUWeight = weights[r.Script-1]
			r.Demand = drawDemand(meanDC)
			if paramZipf != nil && paramS.Bernoulli(p.CacheableFrac) {
				r.Param = 1 + int64(paramZipf.Next())
			}
		} else {
			r.CPUWeight = 0.3 // statics: mostly I/O with protocol CPU
			r.Demand = drawDemand(meanDH)
		}
	}
}

// drawSizes fills in each record's Class, Size and MemPages: everything
// drawn from the size stream. classS must replay the class stream
// drawWork reads.
func drawSizes(p Profile, reqs []Request, classS, sizeS *rng.Stream) {
	const pageSize = 8192
	fileset := NewSPECWebFileSet()
	// Location parameters of the two lognormal size laws: the −σ²/2
	// offsets give each law the profile's mean size.
	muCGI := math.Log(p.MeanCGISize) - 0.125
	muHTML := math.Log(p.MeanHTMLSize) - 0.32
	for i := range reqs {
		r := &reqs[i]
		if classS.Bernoulli(p.DynamicFrac) {
			r.Class = Dynamic
			r.Size = max(int64(sizeS.Lognormal(muCGI, 0.5)), 64)
			r.MemPages = 1 + int(sizeS.Exp(float64(p.MemPagesMean)))
		} else {
			// Draw a target size around the profile's HTML mean, then
			// map to the closest SPECweb96 file as the paper does.
			f := fileset.Closest(int64(sizeS.Lognormal(muHTML, 0.8)))
			r.Size = f.Size
			r.MemPages = int((f.Size + pageSize - 1) / pageSize)
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0.01 {
		return 0.01
	}
	if x > 0.99 {
		return 0.99
	}
	return x
}

// Table1 generates small synthetic instances of all four profiles at
// their historical rates and reports their characteristics next to the
// published Table 1 values. n is the per-trace record count.
func Table1(n int, seed int64) ([]Characteristics, error) {
	profiles := []Profile{DEC, UCB, KSU, ADL}
	out := make([]Characteristics, 0, len(profiles))
	for i, p := range profiles {
		lambda := 1 / p.LogInterval
		cfg := GenConfig{
			Profile:  p,
			Lambda:   lambda,
			Requests: n,
			MuH:      1200,
			R:        1.0 / 40,
			Seed:     seed + int64(i),
		}
		tr, err := Generate(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Characterize(tr))
	}
	return out, nil
}
