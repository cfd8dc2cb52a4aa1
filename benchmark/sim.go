package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/experiments"
	"msweb/internal/policy"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// Simulator workloads: a pass replays a fixed set of cells through
// cluster.Simulate on one goroutine; passes repeat until the run's
// seconds have elapsed. Every pass of a run simulates the same inputs,
// so every pass must produce the same digest.

const (
	simInvR = 40.0
	simRho  = 0.65
	// simSLO is the response-time SLO (virtual seconds) the cells are
	// scored against — experiments.RunAutoscale's.
	simSLO = 2.0
)

// simCell is one cluster.Simulate call with its generated inputs.
type simCell struct {
	name   string
	tr     *trace.Trace
	wt     core.WTable
	cfg    cluster.Config
	preset string
	seed   int64
}

// simSize is what -smoke shrinks.
type simSize struct {
	fig4Requests          int
	autoNodes, autoShards int
	autoCells             int
	autoSeconds           float64
	minPasses             int
}

var (
	simFull  = simSize{fig4Requests: 20000, autoNodes: 512, autoShards: 16, autoCells: 2, autoSeconds: 4, minPasses: 10}
	simSmoke = simSize{fig4Requests: 1200, autoNodes: 64, autoShards: 4, autoCells: 1, autoSeconds: 2, minPasses: 1}
)

// genCell generates one cell's trace and its off-line w sample, under
// spans when traced.
func genCell(tr *tracer, parent int64, gen trace.GenConfig) (*trace.Trace, core.WTable, error) {
	sp := tr.begin("trace.generate", parent, 0)
	t, err := trace.Generate(gen)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("core.sample_w", parent, 0)
	wt := core.SampleW(t, 16)
	tr.end(sp)
	return t, wt, nil
}

// buildFig4Cells is sim_fig4_cells' set-up: UCB/KSU/ADL × {ms, flat} at
// p = 32, ρ = 0.65, 1/r = 40. The ms cells run Theorem 1's master count,
// the flat cells make every node a master (M/S-1's topology).
func buildFig4Cells(seed int64, size simSize, tr *tracer, parent int64) ([]simCell, error) {
	const p = 32
	var cells []simCell
	for _, prof := range trace.Profiles() {
		a, r := prof.ArrivalRatio(), 1/simInvR
		lambda := experiments.LambdaForRho(p, a, r, simRho)
		plan, err := queuemodel.NewParams(p, lambda, a, experiments.MuH, r).OptimalPlan()
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", prof.Name, err)
		}
		t, wt, err := genCell(tr, parent, trace.GenConfig{
			Profile: prof, Lambda: lambda, Requests: size.fig4Requests,
			MuH: experiments.MuH, R: r, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		for _, preset := range []string{"ms", "flat"} {
			m := plan.M
			if preset == "flat" {
				m = p
			}
			cfg := cluster.DefaultConfig(p, m)
			cfg.WarmupFraction = 0.15
			cfg.SLOResponse = simSLO
			cfg.Seed = seed
			cells = append(cells, simCell{
				name: prof.Name + "/" + preset, tr: t, wt: wt, cfg: cfg, preset: preset, seed: seed,
			})
		}
	}
	return cells, nil
}

// buildAutoscaleCells is sim_sharded_autoscale's set-up: the diurnal row
// of experiments.RunAutoscale at a fleet large enough that per-tick
// polling, summaries, gossip, epoch changes and OptimalPlan dominate.
// A pass replays autoCells traces of consecutive seeds: how busy the
// autoscaler gets depends on the trace, and one trace per pass made
// req_per_s vary by 8.5 % from seed to seed.
func buildAutoscaleCells(seed int64, size simSize, tr *tracer, parent int64) ([]simCell, error) {
	p, shards := size.autoNodes, size.autoShards
	prof, r := trace.KSU, 1/simInvR
	// As in RunAutoscale: the mean rate fills the fleet to ρ at the
	// diurnal peak (1.6× mean).
	lambda := experiments.LambdaForRho(p, prof.ArrivalRatio(), r, simRho) / 1.6
	var cells []simCell
	for i := 0; i < size.autoCells; i++ {
		cellSeed := seed*int64(size.autoCells) + int64(i)
		t, wt, err := genCell(tr, parent, trace.GenConfig{
			Profile: prof, Lambda: lambda, Requests: int(lambda * size.autoSeconds),
			MuH: experiments.MuH, R: r, Seed: cellSeed,
			Arrival: trace.DiurnalArrivals, DiurnalPeriod: size.autoSeconds / 3,
		})
		if err != nil {
			return nil, err
		}
		cfg := cluster.DefaultConfig(p, shards)
		cfg.WarmupFraction = 0.15
		cfg.Shards = shards
		cfg.SLOResponse = simSLO
		cfg.Seed = cellSeed
		cfg.Autoscale = &cluster.Autoscale{Period: 0.5, MinM: 2, MaxM: p / 2}
		cells = append(cells, simCell{
			name: fmt.Sprintf("KSU/diurnal/autoscale/%d", i), tr: t, wt: wt, cfg: cfg, preset: "ms", seed: cellSeed,
		})
	}
	return cells, nil
}

var simBuilders = map[string]func(int64, simSize, *tracer, int64) ([]simCell, error){
	"sim_fig4_cells":        buildFig4Cells,
	"sim_sharded_autoscale": buildAutoscaleCells,
}

// simPass is what one pass over the cells produced.
type simPass struct {
	hostS                      float64
	requests, counted, shed    int64
	events                     uint64
	stretchSum                 float64 // Σ counted × StretchFactor
	sloSum                     float64 // Σ SLOCount × SLOAttainment
	sloN                       int64
	nodeHours                  float64
	totalDyn, remoteDyn        int64
	polledPerTick, summaryAgeS float64 // means over the sharded cells
	shardedCells               int
	gossipS                    float64
	spilled                    int64
	promotions, demotions      int64
	digest                     string
	// cellUsPerReq is each cell's host time per simulated request, µs.
	cellUsPerReq []float64
}

// runSimPass simulates every cell once. The digest covers full-precision
// per-cell results.
func runSimPass(cells []simCell, tr *tracer, parent int64) (*simPass, error) {
	p := &simPass{}
	h := sha256.New()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, c := range cells {
		cellSpan := tr.begin("sim.cell", parent, 0)
		preset, err := policy.Lookup(c.preset)
		if err != nil {
			return nil, err
		}
		cfg := c.cfg
		sp := tr.begin("cluster.simulate", cellSpan, 0)
		t0 := time.Now()
		res, err := cluster.Simulate(cfg, preset.Build(c.wt, c.seed), c.tr)
		host := time.Since(t0).Seconds()
		tr.end(sp)
		tr.end(cellSpan)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.name, err)
		}
		p.hostS += host
		p.cellUsPerReq = append(p.cellUsPerReq, host*1e6/float64(len(c.tr.Requests)))
		p.requests += int64(len(c.tr.Requests))
		p.counted += int64(res.Summary.Count)
		p.shed += res.Shed
		p.events += res.Events
		p.stretchSum += float64(res.Summary.Count) * res.StretchFactor
		p.sloSum += float64(res.SLOCount) * res.SLOAttainment
		p.sloN += res.SLOCount
		p.nodeHours += res.NodeHours
		p.totalDyn += res.TotalDynamics
		p.remoteDyn += res.RemoteDynamics
		if s := res.Shards; s != nil {
			p.shardedCells++
			p.polledPerTick += s.NodesPolledPerTick
			p.summaryAgeS += s.MeanSummaryAge
			p.spilled += s.Spilled
			p.gossipS = cfg.GossipEvery
			if p.gossipS == 0 {
				p.gossipS = 4 * cfg.LoadRefresh
			}
			put(float64(s.Epoch), float64(s.EpochChanges), float64(s.MovedNodes), s.MeanSummaryAge)
		}
		if a := res.Autoscale; a != nil {
			p.promotions += a.Promotions
			p.demotions += a.Demotions
			put(float64(a.SlaveOns), float64(a.SlaveOffs), float64(a.HeldTicks), float64(a.FinalPowered))
		}
		put(res.StretchFactor, res.Summary.MeanResponse, res.Summary.P99Response, res.Summary.MaxStretch,
			float64(res.Summary.Count), float64(res.Events), res.SimulatedSeconds, float64(res.Shed),
			res.SLOAttainment, res.NodeHours, float64(res.Failovers), float64(res.TotalDynamics),
			float64(res.RemoteDynamics), float64(res.MasterDynamics), float64(res.FinalMasters))
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	if n := float64(p.shardedCells); n > 0 {
		p.polledPerTick /= n
		p.summaryAgeS /= n
	}
	return p, nil
}
