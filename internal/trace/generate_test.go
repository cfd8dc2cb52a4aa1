package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"msweb/internal/rng"
)

// traceDigest is a SHA-256 over the name and every field of every record.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	h.Write([]byte(tr.Name))
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range tr.Requests {
		put(uint64(r.ID))
		put(math.Float64bits(r.Arrival))
		put(uint64(r.Class))
		put(uint64(r.Size))
		put(math.Float64bits(r.Demand))
		put(math.Float64bits(r.CPUWeight))
		put(uint64(r.MemPages))
		put(uint64(r.Script))
		put(uint64(r.Param))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins Generate's output bit for bit, for every
// profile × arrival model × demand model at seed 1. A change to the
// generator that moves any field of any record — including the order in
// which it draws from its streams — fails here before it reaches the
// simulator's goldens.
func TestGenerateGolden(t *testing.T) {
	arrivals := []struct {
		name  string
		model ArrivalModel
	}{{"poisson", PoissonArrivals}, {"diurnal", DiurnalArrivals}, {"mmpp", MMPPArrivals}}
	demands := []struct {
		name  string
		model DemandModel
	}{{"exp", ExponentialDemand}, {"pareto", ParetoDemand}, {"det", DeterministicDemand}}
	want := map[string]string{
		"UCB/poisson/exp":    "3796568ebbdedd37272c68c80ef6eb747c86efca8b13fbaff958a52c0d274be2",
		"UCB/poisson/pareto": "d06ad59ebb43401c87d64151682a62e2019e4f369e16fee6e65b3cd9a33a192f",
		"UCB/poisson/det":    "70a5d371bcbfa4c55022f7891075d0eeff1c98de9fe98ccbfdad09342e4479a7",
		"UCB/diurnal/exp":    "f8535b63acceb57396e5a4111544a4d50f112f644226bd8867dbefde3b7386c9",
		"UCB/diurnal/pareto": "391fbd5e783281b3c9cb2743cda4303690e8d765fe7cd5f6b916fd57e5ee86ad",
		"UCB/diurnal/det":    "aab36e9a99aef307a179d5022c87dae1e39abd90fd34358411ce3a0cfc22ac07",
		"UCB/mmpp/exp":       "e40c80e2ebf05f3a4daae89d1531b84550bfa93df0abfc69747c0f1d1eb3a302",
		"UCB/mmpp/pareto":    "751907338940b1ab559e85b92f312ac48c11e6e06c6aa1b8f1ec3c03cdcc18f1",
		"UCB/mmpp/det":       "5a907c83a98672b8acc880cfeaea597fecc3425311b19d0585c495033f22a191",
		"KSU/poisson/exp":    "78013434f8729450c990086b019217022912c4a73c8d903f603ab511348e07dc",
		"KSU/poisson/pareto": "5f640f65ba9869aef5ef2418db9db092100172e8923d964e233ecab4ff158a8b",
		"KSU/poisson/det":    "373f16da408efec7a7229347d570180b914c8e9d3936598fc836bed2cd17dab2",
		"KSU/diurnal/exp":    "d8596ab7d27c656ddb30f230884049db4f9db69021aa17a18c0f990d2a2eac0a",
		"KSU/diurnal/pareto": "ef64fb64319e0dd04f115942287457345bc235eb67a5d5287a71c74c086a5de8",
		"KSU/diurnal/det":    "92a37b87bbcdb82cea5d7ee9c48ff81f0eab272a8ab59e38429966fa0421df9f",
		"KSU/mmpp/exp":       "addc5fe89c96d9a57808037a63d32aa7279e6692ebac37c2123259eac12eb262",
		"KSU/mmpp/pareto":    "40ea95f33e31656dc1185ba177b981cae43f680869486e39c4b9c3ddfd9dfaf2",
		"KSU/mmpp/det":       "94a8d5b1a5960872e154b1e76b94bd574c6a84c99c46d2629188842a80cbbccd",
		"ADL/poisson/exp":    "8656f0956209fea3daf6426e634f73f96451594bf68db694c13ec2a43dfb4054",
		"ADL/poisson/pareto": "e7f0b738475223544f3369c50ac4554327d3eaf133f5af205fe50d1234fc7420",
		"ADL/poisson/det":    "58c4b2698619eda7a3d8337f5ba965a95f68c09ee11531d91cd8e67155fa2250",
		"ADL/diurnal/exp":    "bc5a82702122a153c0638fefe0912a82cfaa78b5020941a6082de154b19bda3d",
		"ADL/diurnal/pareto": "6a203ed4b8e19cc55705169ccc8b29615edf6f899b1ec9eaa601daf447dda5c6",
		"ADL/diurnal/det":    "c3521efe3c76bec36586fc06501b241327acdec2e883dbb60e346639d8bcbdc3",
		"ADL/mmpp/exp":       "082aaaddaceaa4c5701bf69cbd18c7c918c2b7ff9c455d87d69ecf7bba5fa4e5",
		"ADL/mmpp/pareto":    "e7122b93cb1d0f29b537f8f40a4c3d6066d53e6513deb0f35060fb94413057d9",
		"ADL/mmpp/det":       "5896d2c30120a146d744aa21b67f574d1fde499349abb6b1825a122035511fa7",
	}
	for _, p := range Profiles() {
		for _, a := range arrivals {
			for _, d := range demands {
				name := p.Name + "/" + a.name + "/" + d.name
				tr, err := Generate(GenConfig{
					Profile: p, Lambda: 500, Requests: 2000, MuH: 1200, R: 1.0 / 40,
					Arrival: a.model, Demand: d.model, Seed: 1,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := traceDigest(tr); got != want[name] {
					t.Errorf("%s: digest %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// generateSequential is the single-loop generator Generate's two workers
// replaced, kept as the reference they must match: one record at a time,
// every field of a record drawn before the next record starts.
func generateSequential(cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := rng.New(cfg.Seed)
	arrivalS := s.Fork(1)
	classS := s.Fork(2)
	sizeS := s.Fork(3)
	demandS := s.Fork(4)
	scriptS := s.Fork(5)

	fileset := NewSPECWebFileSet()
	pageSize := int64(8192)
	paramS := s.Fork(6)
	var paramZipf *rng.Zipf
	if cfg.Profile.ParamCardinality > 0 {
		paramZipf = paramS.NewZipf(cfg.Profile.ParamCardinality, cfg.Profile.ParamZipfTheta)
	}

	weights := make([]float64, cfg.Profile.NumScripts)
	for i := range weights {
		w := scriptS.Normal(cfg.Profile.CPUWeight, cfg.Profile.CPUWeightSD)
		weights[i] = clamp01(w)
	}

	meanDH := 1 / cfg.MuH
	meanDC := 1 / (cfg.R * cfg.MuH)
	muCGI := math.Log(cfg.Profile.MeanCGISize) - 0.125
	muHTML := math.Log(cfg.Profile.MeanHTMLSize) - 0.32
	drawDemand := func(mean float64) float64 {
		switch cfg.Demand {
		case ParetoDemand:
			lo := mean / 2.866
			return demandS.BoundedPareto(lo, 500*lo, 1.5)
		case DeterministicDemand:
			return mean
		default:
			floor := 0.12 * mean
			return floor + demandS.Exp(mean-floor)
		}
	}

	tr := &Trace{Name: cfg.Profile.Name, Requests: make([]Request, 0, cfg.Requests)}
	nextInterval := arrivalProcess(cfg, arrivalS)
	now := 0.0
	for i := 0; i < cfg.Requests; i++ {
		now += nextInterval(now)
		req := Request{ID: int64(i), Arrival: now}
		if classS.Bernoulli(cfg.Profile.DynamicFrac) {
			req.Class = Dynamic
			req.Script = 1 + scriptS.Intn(cfg.Profile.NumScripts)
			req.CPUWeight = weights[req.Script-1]
			req.Size = int64(sizeS.Lognormal(muCGI, 0.5))
			if req.Size < 64 {
				req.Size = 64
			}
			req.Demand = drawDemand(meanDC)
			req.MemPages = 1 + int(sizeS.Exp(float64(cfg.Profile.MemPagesMean)))
			if paramZipf != nil && paramS.Bernoulli(cfg.Profile.CacheableFrac) {
				req.Param = 1 + int64(paramZipf.Next())
			}
		} else {
			req.Class = Static
			target := int64(sizeS.Lognormal(muHTML, 0.8))
			f := fileset.Closest(target)
			req.Size = f.Size
			req.CPUWeight = 0.3
			req.Demand = drawDemand(meanDH)
			req.MemPages = int((f.Size + pageSize - 1) / pageSize)
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr, nil
}

// sameRecords reports the first record where two traces differ. Records
// compare by the bits of their float fields, so a NaN matches itself and
// -0 does not match +0.
func sameRecords(a, b *Trace) (int, bool) {
	if a.Name != b.Name || len(a.Requests) != len(b.Requests) {
		return -1, false
	}
	for i := range a.Requests {
		x, y := a.Requests[i], b.Requests[i]
		if x.ID != y.ID || x.Class != y.Class || x.Size != y.Size ||
			x.MemPages != y.MemPages || x.Script != y.Script || x.Param != y.Param ||
			math.Float64bits(x.Arrival) != math.Float64bits(y.Arrival) ||
			math.Float64bits(x.Demand) != math.Float64bits(y.Demand) ||
			math.Float64bits(x.CPUWeight) != math.Float64bits(y.CPUWeight) {
			return i, false
		}
	}
	return 0, true
}

// TestGenerateMatchesSequential holds Generate's two workers to the
// single-loop reference record for record: every profile (DEC included),
// arrival model, demand model, the profile's own class mix plus the
// all-static and all-dynamic mixes of the live benchmark workloads, and
// trace lengths from one record up. The longest traces run at one seed;
// the rest at several.
func TestGenerateMatchesSequential(t *testing.T) {
	type lengthSeeds struct {
		n     int
		seeds []int64
	}
	lengths := []lengthSeeds{{1, []int64{1, 2, 99}}, {2, []int64{1, 2, 99}}, {1000, []int64{1, 2, 99}}, {20000, []int64{5}}}
	for _, p := range []Profile{UCB, KSU, ADL, DEC} {
		for _, frac := range []float64{p.DynamicFrac, 0, 1} {
			prof := p
			prof.DynamicFrac = frac
			for _, a := range []ArrivalModel{PoissonArrivals, DiurnalArrivals, MMPPArrivals} {
				for _, d := range []DemandModel{ExponentialDemand, ParetoDemand, DeterministicDemand} {
					for _, l := range lengths {
						for _, seed := range l.seeds {
							cfg := GenConfig{
								Profile: prof, Lambda: 500, Requests: l.n, MuH: 1200, R: 1.0 / 40,
								Arrival: a, Demand: d, Seed: seed,
							}
							got, err := Generate(cfg)
							if err != nil {
								t.Fatal(err)
							}
							want, err := generateSequential(cfg)
							if err != nil {
								t.Fatal(err)
							}
							if i, ok := sameRecords(got, want); !ok {
								t.Fatalf("%s frac=%v arrival=%d demand=%d n=%d seed=%d: record %d differs",
									p.Name, frac, a, d, l.n, seed, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestGenerateAcceptedTracesValidate: every configuration Generate
// accepts yields a trace that passes (*Trace).Validate, and a non-finite
// parameter is always refused. Each floating-point field is set in turn
// to NaN, ±Inf, a negative, a zero and finite positive values, under
// every arrival model.
func TestGenerateAcceptedTracesValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	fields := []struct {
		name string
		set  func(*GenConfig, float64)
	}{
		{"Lambda", func(c *GenConfig, v float64) { c.Lambda = v }},
		{"MuH", func(c *GenConfig, v float64) { c.MuH = v }},
		{"R", func(c *GenConfig, v float64) { c.R = v }},
		{"BurstFactor", func(c *GenConfig, v float64) { c.BurstFactor = v }},
		{"BurstDuration", func(c *GenConfig, v float64) { c.BurstDuration = v }},
		{"NormalDuration", func(c *GenConfig, v float64) { c.NormalDuration = v }},
		{"DiurnalPeriod", func(c *GenConfig, v float64) { c.DiurnalPeriod = v }},
		{"DynamicFrac", func(c *GenConfig, v float64) { c.Profile.DynamicFrac = v }},
		{"CPUWeight", func(c *GenConfig, v float64) { c.Profile.CPUWeight = v }},
		{"CPUWeightSD", func(c *GenConfig, v float64) { c.Profile.CPUWeightSD = v }},
		{"MeanHTMLSize", func(c *GenConfig, v float64) { c.Profile.MeanHTMLSize = v }},
		{"MeanCGISize", func(c *GenConfig, v float64) { c.Profile.MeanCGISize = v }},
		{"CacheableFrac", func(c *GenConfig, v float64) { c.Profile.CacheableFrac = v }},
		{"ParamZipfTheta", func(c *GenConfig, v float64) { c.Profile.ParamZipfTheta = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{nan, inf, -inf, -1, 0, 0.5, 1, 1e6} {
			for _, a := range []ArrivalModel{PoissonArrivals, DiurnalArrivals, MMPPArrivals} {
				cfg := GenConfig{Profile: KSU, Lambda: 500, Requests: 200, MuH: 1200, R: 1.0 / 40, Arrival: a, Seed: 3}
				f.set(&cfg, v)
				tr, err := Generate(cfg)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					if err == nil {
						t.Fatalf("%s=%v arrival=%d: non-finite parameter accepted", f.name, v, a)
					}
					continue
				}
				if err != nil {
					continue // a finite value out of the field's range
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s=%v arrival=%d: accepted config produced an invalid trace: %v", f.name, v, a, err)
				}
			}
		}
	}
}

// Generate writes into one slice of the final length: its allocations
// are that slice plus the fixed-size streams and tables, never the
// doubling copies of an append-grown slice.
func TestGenerateAllocatesOneRecordSlice(t *testing.T) {
	const n = 20000
	limit := uint64(1.1 * n * float64(unsafe.Sizeof(Request{})))
	cfg := GenConfig{Profile: KSU, Lambda: 500, Requests: n, MuH: 1200, R: 1.0 / 40, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("generating %d requests allocated %d bytes, want ≤ %d", n, got, limit)
	}
}
