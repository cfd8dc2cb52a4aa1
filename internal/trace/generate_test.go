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

// traceDigest is a SHA-256 over the name and every field of every record,
// each widened to eight bytes.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	h.Write([]byte(tr.Name))
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range tr.Requests {
		put(math.Float64bits(r.Arrival))
		put(uint64(r.Class))
		put(uint64(r.Size))
		put(math.Float64bits(r.Demand))
		put(math.Float64bits(r.CPUWeight))
		put(uint64(r.MemPages))
		put(uint64(r.Script))
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
		"UCB/poisson/exp":    "378af766d9626515753b85ae1d9de51cbb91bec48436880fd4e3baa311651c2f",
		"UCB/poisson/pareto": "291c3a19bf817d9357432ca20a4b1be482927089aa771155d8255927acc5d6a4",
		"UCB/poisson/det":    "96390ecd633efec1bc9b40daab68b598778fa4fb6f0e9d933a05c8ab11b6b5e9",
		"UCB/diurnal/exp":    "7544c09b9c143713487f13bfa3c7cea5bff7b120f7e2f03bc51aa0bfaa3de606",
		"UCB/diurnal/pareto": "a5dea8c57f1b1b89c23ddd3bf90685ff9873d1cbf47da1072782811cba9b9a66",
		"UCB/diurnal/det":    "5697581ce0cac9f18b9ec4c2021b8b5b166b1596392e584457bda5e8a7ed70bd",
		"UCB/mmpp/exp":       "0851874c0a23b607133ecf7d80401cc353d1c2f076bec3c4f8874cbc1bf5bfaa",
		"UCB/mmpp/pareto":    "9eba9b43126bf8a47cb20eba41d96ac26bcc2a4e91b69172d1bf5da295314333",
		"UCB/mmpp/det":       "0edc6b33fdd0e1fc78da53f76e89e97c0d7bad33b7aea09d344d02900df962bc",
		"KSU/poisson/exp":    "fd58c0081053328a20848796c8807d41d6cd66539546eecea74d9019edf7aaf0",
		"KSU/poisson/pareto": "19b2bf6fc1aee88e341a838f40a88e384d1774d11a1c0aed30611c7bc0be0530",
		"KSU/poisson/det":    "d61473d327b38f67145b46188fdf69a11ba97dd6c0b8b1570311c9bc5d0a3a34",
		"KSU/diurnal/exp":    "851234806fb140dd0f031eb2ca61ff7df0f2599b1c887b49a696764aee6c080b",
		"KSU/diurnal/pareto": "a891e4db0645916217d26073f7f6ae093cd65cafa51d7ce62186ce7d652c0f49",
		"KSU/diurnal/det":    "dbf3bcad2059b38922318b87d4b97e0be4187feb3de292617ba3105dce1bbc5f",
		"KSU/mmpp/exp":       "81a702ace937fa5da46498d640cc2ac2a8ed12e4a8e58a169e7a0d264fbea7e2",
		"KSU/mmpp/pareto":    "ab86a2bd07c5af499648564cbbc1ed312f2da9fbad0d8cfa9781bea3c6312733",
		"KSU/mmpp/det":       "afaa32adf0d86ff2104cce9e2afe292b4d03aaf8796f077409d9376ff1f14a24",
		"ADL/poisson/exp":    "344f10d4cdb692efc91b90eb57f4e99de7404190c489884392d57d9ca8bfddbf",
		"ADL/poisson/pareto": "32ba2be92e64d80b61c61e329edb831988b23dd362ec60b225afdecd2bf1d1d4",
		"ADL/poisson/det":    "65baeaa4d2fb28639b6dcb8c583757169fbefa7a3fc389e29c2ee10fde845cf8",
		"ADL/diurnal/exp":    "ab591d9301cdac53c93080aed185d0bca0f7430f02ba1f15f387a1f87c136b7d",
		"ADL/diurnal/pareto": "a6ee3dada93e1d57dca58147a7995aff2dfeffae13413665bed23a679c2754fa",
		"ADL/diurnal/det":    "ef4ab6caa5ce34fe446b5ef33509f8f11e0623db9ff63f9fcdcfb87e5b008c0f",
		"ADL/mmpp/exp":       "f177d7087d6cc5347bbcb0269a8f2de0807bdb2e7215367b0f1bd434fc9a96a2",
		"ADL/mmpp/pareto":    "b7fea3436e592a70869bb0ebfb80c8c3526b3ed1231ec21bbe21566239243a59",
		"ADL/mmpp/det":       "bede51a484cd895a7bc7adbbb67477d40d0a4baf1def52553018bfcfe6d73534",
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
		req := Request{Arrival: now}
		if classS.Bernoulli(cfg.Profile.DynamicFrac) {
			req.Class = Dynamic
			req.Script = 1 + scriptS.Intn(cfg.Profile.NumScripts)
			req.CPUWeight = weights[req.Script-1]
			req.Size = int64(sizeS.Lognormal(muCGI, 0.5))
			if req.Size < 64 {
				req.Size = 64
			}
			req.Demand = drawDemand(meanDC)
			req.MemPages = 1 + int32(sizeS.Exp(float64(cfg.Profile.MemPagesMean)))
		} else {
			req.Class = Static
			target := int64(sizeS.Lognormal(muHTML, 0.8))
			f := fileset.Closest(target)
			req.Size = f.Size
			req.CPUWeight = 0.3
			req.Demand = drawDemand(meanDH)
			req.MemPages = int32((f.Size + pageSize - 1) / pageSize)
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
		if x.Class != y.Class || x.Size != y.Size ||
			x.MemPages != y.MemPages || x.Script != y.Script ||
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

// TestRequestIsSixWords pins the record size. The records are most of
// a simulator run's live heap (one sim_sharded_autoscale pass holds
// 161 696 of them), so a field added to Request, or one widened or moved
// so that the two narrow fields no longer share the last word, costs
// memory on every run and must be argued for here.
func TestRequestIsSixWords(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 48 {
		t.Fatalf("Request is %d bytes, want 48", got)
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
