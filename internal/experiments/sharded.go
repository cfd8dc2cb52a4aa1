package experiments

// Sharded-vs-global control plane study. The paper's master tier keeps
// one global load view per master — O(cluster) poll work per refresh
// tick. The sharded control plane (cluster.Config.Shards) gives each
// master its own shard and gossips compact summaries across shards; the
// study measures what that buys and costs as the fleet grows: per-master
// per-tick poll work (flat in fleet size once sharded), the staleness of
// the cross-shard summaries a spill decision would act on, and the
// stretch factor (placement quality) against the single-view baseline on
// identical traces.

import (
	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/report"
	"msweb/internal/trace"
)

// shardNodesPerMaster sizes the master tier: one master per ~64 nodes,
// so shard size stays constant while the fleet scales.
const shardNodesPerMaster = 64

// ShardScaleRow compares the two control planes at one fleet size.
type ShardScaleRow struct {
	Nodes   int
	Masters int
	// GlobalPolled / ShardPolled are nodes polled per master per refresh
	// tick: the fleet size under the global view, the shard size (+1 for
	// the master's own sample) when sharded.
	GlobalPolled float64
	ShardPolled  float64
	// MaxShard is the largest shard the consistent-hash map produced.
	MaxShard int
	// GlobalSF / ShardSF are the seed-mean stretch factors on identical
	// traces — the placement-quality cost of the partitioned view.
	GlobalSF float64
	ShardSF  float64
	// SummaryAge is the mean age (virtual seconds) of the remote
	// summaries a sharded master holds, sampled at every policy tick.
	SummaryAge float64
	// Spilled / SpillShed count cross-shard spills and sheds with no
	// fresh remote candidate (summed over seeds).
	Spilled   int64
	SpillShed int64
}

// RunShardScale runs both control planes at each fleet size on identical
// KSU traces. The workload is held fixed while the fleet grows (this is
// a control-plane scaling study, not a saturation study), so the
// quantity to watch is ShardPolled staying flat while GlobalPolled grows
// linearly, with ShardSF tracking GlobalSF.
func RunShardScale(fleets []int, opts Options) ([]ShardScaleRow, error) {
	opts = opts.withDefaults()
	prof := trace.KSU
	r := 1.0 / 40
	n := opts.MinRequests
	lambda := float64(n) / opts.Duration

	type cell struct {
		fi      int
		sharded bool
		seed    int64
	}
	type cellRes struct {
		sf     float64
		shards *cluster.ShardStats
	}
	var cells []cell
	for fi := range fleets {
		for _, sharded := range []bool{false, true} {
			for _, seed := range opts.Seeds {
				cells = append(cells, cell{fi, sharded, seed})
			}
		}
	}
	results, err := runGrid(cells, func(c cell) (cellRes, error) {
		p := fleets[c.fi]
		m := p / shardNodesPerMaster
		if m < 4 {
			m = 4
		}
		tr, wt, err := genTraceW(prof, lambda, r, n, c.seed)
		if err != nil {
			return cellRes{}, err
		}
		cfg := cluster.DefaultConfig(p, m)
		cfg.WarmupFraction = opts.Warmup
		cfg.EnableShedding = true
		if c.sharded {
			cfg.Shards = m
		}
		res, err := cluster.Simulate(cfg, core.NewMS(wt, c.seed), tr)
		if err != nil {
			return cellRes{}, err
		}
		return cellRes{sf: res.StretchFactor, shards: res.Shards}, nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]ShardScaleRow, len(fleets))
	nSeeds := len(opts.Seeds)
	i := 0
	for fi, p := range fleets {
		m := p / shardNodesPerMaster
		if m < 4 {
			m = 4
		}
		row := &rows[fi]
		row.Nodes, row.Masters = p, m
		row.GlobalPolled = float64(p)
		for _, sharded := range []bool{false, true} {
			var sfs []float64
			for s := 0; s < nSeeds; s++ {
				cr := results[i]
				i++
				sfs = append(sfs, cr.sf)
				if !sharded || cr.shards == nil {
					continue
				}
				row.ShardPolled += cr.shards.NodesPolledPerTick / float64(nSeeds)
				row.SummaryAge += cr.shards.MeanSummaryAge / float64(nSeeds)
				row.Spilled += cr.shards.Spilled
				row.SpillShed += cr.shards.SpillShed
				if cr.shards.MaxShardSize > row.MaxShard {
					row.MaxShard = cr.shards.MaxShardSize
				}
			}
			if sharded {
				row.ShardSF = seedMean(sfs)
			} else {
				row.GlobalSF = seedMean(sfs)
			}
		}
	}
	return rows, nil
}

// ShardScaleTable converts the comparison.
func ShardScaleTable(rows []ShardScaleRow) *report.Table {
	t := &report.Table{
		Title: "Extension: sharded control plane scaling",
		Columns: []string{"nodes", "masters", "shard_polled_per_tick", "global_polled_per_tick",
			"max_shard", "sf_sharded", "sf_global", "summary_age_s", "spilled", "spill_shed"},
		Notes: []string{
			"Sharded vs global control plane on identical KSU traces at a fixed workload.",
			"Per-master per-tick poll work stays flat under sharding while the global",
			"view's grows with the fleet; the stretch columns price the partitioned view.",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Nodes, r.Masters, round2(r.ShardPolled), r.GlobalPolled,
			r.MaxShard, round4(r.ShardSF), round4(r.GlobalSF), round4(r.SummaryAge),
			r.Spilled, r.SpillShed)
	}
	return t
}
