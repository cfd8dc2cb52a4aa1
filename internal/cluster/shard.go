package cluster

// Sharded control plane, simulation side. With Config.Shards > 1 the
// slave tier is partitioned across the master tier by the same
// deterministic core.ShardMap the live cluster uses (shard i is owned
// by the i-th master of the current view): each master's placement view
// holds only its own shard, its per-tick refresh work is the shard size
// rather than the fleet size, and cross-shard state travels as
// core.ShardSummary values exchanged on a slow gossip tick. When a
// sharded master would shed (its reservation denies absorption and its
// shard offers no slave), it first tries to spill onto the least-loaded
// digest of a fresh remote summary, paying a second dispatch hop.
//
// The map is epoch-versioned: every topology change — a node crash or
// recovery, or one autoscaler plan, however many nodes it powers on or
// off and whether or not it moves the master count — builds the next
// map with core.NewShardMapAt at the next epoch, the function the live
// plane's Membership.ShardMap calls (consistent-hash ring, so only ~1/m
// of the slaves change owner per master change). Summaries carry the
// epoch of the map they were built under; spill decisions accept the
// current and the immediately preceding epoch (the bounded dual-epoch
// handoff window) and discard anything older.
//
// The simulation is the byte-deterministic side of the design: the same
// trace and seed always produce the same placements, reshards and
// scaling decisions, so experiments can compare sharded and global
// control planes — and autoscaled against fixed fleets — exactly.

import (
	"slices"

	"msweb/internal/core"
)

// simShardTopK mirrors the live shardTopK digest count.
const simShardTopK = 8

// ShardStats reports sharded control-plane accounting for one run.
type ShardStats struct {
	// Shards is the final shard (= master) count.
	Shards int
	// MaxShardSize is the largest shard's slave population.
	MaxShardSize int
	// NodesPolledPerTick is the mean per-master per-tick refresh work
	// (own node + own shard) — the O(shard) claim. An unsharded
	// master's equivalent is the fleet size.
	NodesPolledPerTick float64
	// MeanSummaryAge is the mean age in virtual seconds of the remote
	// summaries a master holds, sampled at every policy tick.
	MeanSummaryAge float64
	// Spilled counts requests served on a remote shard after the local
	// shard shed them; SpillShed counts sheds with no fresh remote
	// candidate left.
	Spilled   int64
	SpillShed int64
	// Epoch is the shard map's final version; EpochChanges counts the
	// rebalances that got it there (0 for a static run).
	Epoch        uint64
	EpochChanges int64
	// MovedNodes accumulates, over all rebalances, how many surviving
	// slaves changed owner — the consistent-hash ~1/m-per-change claim.
	MovedNodes int64
}

// setupShards builds the initial epoch-0 shard map and the per-master
// views from the configured topology.
func (c *Cluster) setupShards() error {
	sm, err := core.NewShardMap(len(c.view.Masters), c.view.Slaves)
	if err != nil {
		return err
	}
	c.shardMap = sm
	c.resizeShardState()
	c.pointShardViews()
	return nil
}

// reshard rebalances the shard map after a topology change: the next
// epoch's map is built over the new master count and slave list, and
// the per-shard views are pointed at it. Remote
// summaries survive a rebalance that keeps the shard count (they are one
// epoch old — inside the handoff window); a master-count change resizes
// the gossip state and starts the new shards cold.
func (c *Cluster) reshard() {
	if c.shardMap == nil {
		return
	}
	m := len(c.view.Masters)
	if m < 1 {
		// Whole cluster down: keep the last map; dispatch backs off
		// until capacity returns.
		return
	}
	next, err := core.NewShardMapAt(m, c.view.Slaves, c.shardMap.Epoch()+1)
	if err != nil {
		return // unreachable: view slaves are distinct node IDs
	}
	c.shardMoved += int64(next.MovedFrom(c.shardMap))
	c.shardMap = next
	c.epochChanges++
	if m != len(c.shardSums) {
		c.resizeShardState()
	}
	c.pointShardViews()
}

// pointShardViews aims master i's view at shard i of the current map. A
// view aliases the map's member list, its owner's slot in the master
// list and the cluster-sized load array — a master's reads are bounded
// by its Masters/Slaves lists and nothing writes through a view, so
// aliasing is safe and keeps refresh writes in one place.
func (c *Cluster) pointShardViews() {
	for s := range c.shardViews {
		v := &c.shardViews[s]
		v.Masters = c.view.Masters[s : s+1 : s+1]
		v.Slaves = c.shardMap.Members(s)
		v.Load = c.view.Load
		v.Now = c.view.Now
	}
}

// resizeShardState sizes the per-shard views, summaries and gossip
// table to the current shard count and empties them: shard indices
// mean different owners now, so every master starts with no remote
// summaries held. Backing arrays (the summaries' digest lists included)
// are kept across resizes.
func (c *Cluster) resizeShardState() {
	m := c.shardMap.NumShards()
	c.shardViews = resized(c.shardViews, m)
	c.shardSums = resized(c.shardSums, m)
	c.remoteSums = resized(c.remoteSums, m)
	c.remoteAt = resized(c.remoteAt, m)
	for s := 0; s < m; s++ {
		c.shardSums[s] = core.ShardSummary{Top: c.shardSums[s].Top[:0]}
		c.remoteSums[s] = core.ShardSummary{Top: c.remoteSums[s].Top[:0]}
		c.remoteAt[s] = -1
	}
}

// resized returns s with length n, growing the backing array only when
// it is too small; elements past the old length keep whatever an earlier,
// longer use left in them.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// gossipPeriod is the summary exchange period (default 4× the load
// refresh, matching the live default).
func (c *Cluster) gossipPeriod() float64 {
	if c.cfg.GossipEvery > 0 {
		return c.cfg.GossipEvery
	}
	return 4 * c.cfg.LoadRefresh
}

// refreshShardSummaries rebuilds each shard's own summary after a load
// refresh and accounts the per-master poll work (one self-sample plus
// the shard members). Summaries are stamped with the current map epoch.
func (c *Cluster) refreshShardSummaries() {
	atNs := int64(c.eng.Now() * 1e9)
	epoch := c.shardMap.Epoch()
	for s := range c.shardSums {
		members := c.shardMap.Members(s)
		core.BuildShardSummary(&c.shardSums[s], s, atNs, members, c.view.Load, simShardTopK)
		c.shardSums[s].Epoch = epoch
		c.pollWork += int64(len(members)) + 1
		c.pollSamples++
	}
}

// gossipShards delivers every shard's current summary to every other
// master — the sim analogue of the /shard pull round (piggybacked copies
// only make summaries fresher in the live plane; the slow tick is the
// guaranteed floor modeled here). Every master receives the same copy at
// the same instant, so the table holds it once per shard; master o
// reads every entry but its own.
func (c *Cluster) gossipShards() {
	now := c.eng.Now()
	for s := range c.shardSums {
		dst := &c.remoteSums[s]
		top := append(dst.Top[:0], c.shardSums[s].Top...)
		*dst = c.shardSums[s]
		dst.Top = top
		c.remoteAt[s] = now
	}
}

// sampleSummaryAge accumulates the age of every remote summary each
// master holds — the staleness a spill decision would act on right now.
func (c *Cluster) sampleSummaryAge() {
	now := c.eng.Now()
	for o := range c.remoteAt {
		for s, at := range c.remoteAt {
			if s == o || at < 0 {
				continue
			}
			c.ageSum += now - at
			c.ageN++
		}
	}
}

// pickSimSpill returns the best usable node among fresh remote
// summaries' digests (lowest RSRC, ties to the first found — summary
// and digest order are deterministic), or -1 when no shard has a fresh
// summary with a usable digest. Usable means: the summary is fresh and
// from the current or the immediately preceding map epoch (the bounded
// dual-epoch handoff window), and the node is available, powered, and a
// slave of the current map — a digest naming a node that a newer epoch
// demoted or removed is dead information, not a spill target — and not
// one the request already failed on (tried).
func (c *Cluster) pickSimSpill(shard int, tried []int) int {
	now := c.eng.Now()
	ttl := 3 * c.gossipPeriod()
	epoch := c.shardMap.Epoch()
	best, bestCost := -1, 0.0
	for s, at := range c.remoteAt {
		if s == shard || at < 0 || now-at > ttl {
			continue
		}
		sum := &c.remoteSums[s]
		if core.SummaryStale(sum.Epoch, epoch) {
			continue // outside the dual-epoch window
		}
		for _, d := range sum.Top {
			if !c.available[d.Node] || !c.powered[d.Node] || c.shardMap.ShardOf(d.Node) < 0 ||
				slices.Contains(tried, d.Node) {
				continue
			}
			cost := core.NodeRSRC(core.DefaultW, d.Load)
			if best < 0 || cost < bestCost {
				best, bestCost = d.Node, cost
			}
		}
	}
	return best
}

// shardStats snapshots the run's sharding accounting (nil when
// unsharded).
func (c *Cluster) shardStats() *ShardStats {
	if c.shardMap == nil {
		return nil
	}
	st := &ShardStats{
		Shards:       c.shardMap.NumShards(),
		Spilled:      c.spilled,
		SpillShed:    c.spillShed,
		Epoch:        c.shardMap.Epoch(),
		EpochChanges: c.epochChanges,
		MovedNodes:   c.shardMoved,
	}
	for s := 0; s < st.Shards; s++ {
		if n := len(c.shardMap.Members(s)); n > st.MaxShardSize {
			st.MaxShardSize = n
		}
	}
	if c.pollSamples > 0 {
		st.NodesPolledPerTick = float64(c.pollWork) / float64(c.pollSamples)
	}
	if c.ageN > 0 {
		st.MeanSummaryAge = c.ageSum / float64(c.ageN)
	}
	return st
}
