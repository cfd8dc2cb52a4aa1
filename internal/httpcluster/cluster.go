package httpcluster

import (
	"fmt"
	"time"

	"msweb/internal/core"
	"msweb/internal/obs"
)

// Config describes a live cluster.
type Config struct {
	// Nodes is the cluster size; Masters of them (ids 0..Masters−1)
	// serve client traffic.
	Nodes   int
	Masters int
	// TimeScale multiplies every service duration; 1.0 replays demands
	// in real time, 0.25 runs four times faster (at some loss of sleep
	// precision for sub-millisecond bursts).
	TimeScale float64
	// LoadRefresh is each master's /load polling period.
	LoadRefresh time.Duration
	// PolicyTick is each master's reservation-recompute period.
	PolicyTick time.Duration
	// MakePolicy builds one scheduling policy per master (each master
	// runs its own load manager, as in the paper's prototype).
	MakePolicy func(masterID int) core.Policy
	// Resilience configures deadlines, retries, circuit breakers and
	// shedding on every node; the zero value keeps the defaults.
	Resilience Resilience
	// Tracer receives request lifecycle events from every master (must be
	// safe for concurrent use); nil disables tracing.
	Tracer obs.Tracer
	// Uncalibrated runs every node's virtual resources in fast mode
	// (virtual-time accounting, no wall-clock sleeps) — the uncapped
	// configuration for throughput work. See NodeOptions.Uncalibrated.
	Uncalibrated bool
	// Discipline selects every node's CPU scheduling discipline; see
	// NodeOptions.Discipline. Empty means the default round-robin.
	Discipline string
	// Deprecated: ignored; frames are the only dispatch transport.
	BinaryFraming bool
	// ListenerShards is how many SO_REUSEPORT accept sockets every node
	// binds to its port (see NodeOptions.ListenerShards); 0/1 keeps the
	// single listener.
	ListenerShards int
	// Shards > 1 partitions the slave fleet across the master tier:
	// master i polls, tracks breakers for and books against only shard i,
	// spilling shed dynamics cross-shard via gossiped summaries. Must
	// equal Masters. 0 or 1 keeps the unsharded global view.
	Shards int
	// ShardMapMode selects the partitioning function: "hash" (consistent
	// ring, the default) or "static" (position modulo).
	ShardMapMode string
	// GossipEvery is the master↔master /shard pull period (default
	// 4×LoadRefresh).
	GossipEvery time.Duration
	// AutoscaleMasters > 0 enables the live master-tier autoscaler on a
	// sharded cluster: every period the lowest-id master re-plans the
	// tier size from measured load and announces promote/demote
	// membership epochs (see NodeOptions.AutoscaleMasters).
	AutoscaleMasters time.Duration
}

// DefaultConfig mirrors the Table 3 setup: 6 nodes, the given master
// count, real-time scale, 100 ms load polling.
func DefaultConfig(masters int, mk func(int) core.Policy) Config {
	return Config{
		Nodes:       6,
		Masters:     masters,
		TimeScale:   1,
		LoadRefresh: 100 * time.Millisecond,
		PolicyTick:  250 * time.Millisecond,
		MakePolicy:  mk,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("httpcluster: need at least one node")
	case c.Masters < 1 || c.Masters > c.Nodes:
		return fmt.Errorf("httpcluster: masters %d outside [1, %d]", c.Masters, c.Nodes)
	case c.LoadRefresh <= 0 || c.PolicyTick <= 0:
		return fmt.Errorf("httpcluster: polling periods must be positive")
	case c.MakePolicy == nil:
		return fmt.Errorf("httpcluster: MakePolicy is required")
	case c.Shards > 1 && c.Shards != c.Masters:
		return fmt.Errorf("httpcluster: shards %d must equal masters %d", c.Shards, c.Masters)
	case c.AutoscaleMasters < 0:
		return fmt.Errorf("httpcluster: autoscale period must be non-negative")
	case c.AutoscaleMasters > 0 && c.Shards <= 1:
		return fmt.Errorf("httpcluster: the master-tier autoscaler needs a sharded cluster (shards > 1)")
	}
	return nil
}

// Cluster is a running set of master and slave HTTP servers.
type Cluster struct {
	Masters []*Master
	Slaves  []*Node
	origin  time.Time
}

// MasterURLs returns the client-facing base URLs in master order.
func (c *Cluster) MasterURLs() []string {
	urls := make([]string, len(c.Masters))
	for i, m := range c.Masters {
		urls[i] = m.URL
	}
	return urls
}

// NodeExecuted returns per-node executed-request counters (by node id).
func (c *Cluster) NodeExecuted() []int64 {
	out := make([]int64, len(c.Masters)+len(c.Slaves))
	for _, m := range c.Masters {
		out[m.ID] = m.Executed()
	}
	for _, s := range c.Slaves {
		out[s.ID] = s.Executed()
	}
	return out
}

// Start launches the whole cluster on loopback.
func Start(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	origin := time.Now()
	c := &Cluster{origin: origin}

	masters := make([]int, 0, cfg.Masters)
	slaves := make([]int, 0, cfg.Nodes-cfg.Masters)
	for i := 0; i < cfg.Nodes; i++ {
		if i < cfg.Masters {
			masters = append(masters, i)
		} else {
			slaves = append(slaves, i)
		}
	}

	// Slaves first, so their URLs are known to every master.
	nodeURLs := make([]string, cfg.Nodes)
	for _, id := range slaves {
		n, err := LaunchNode(NodeOptions{
			ID: id, Origin: origin, TimeScale: cfg.TimeScale,
			Resilience:     cfg.Resilience,
			Uncalibrated:   cfg.Uncalibrated,
			Discipline:     cfg.Discipline,
			ListenerShards: cfg.ListenerShards,
		})
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		nodeURLs[id] = n.URL
		c.Slaves = append(c.Slaves, n)
	}
	for _, id := range masters {
		m, err := LaunchMaster(NodeOptions{
			ID: id, Origin: origin, TimeScale: cfg.TimeScale,
			Masters: masters, Slaves: slaves, NodeURLs: nodeURLs,
			Policy:      cfg.MakePolicy(id),
			LoadRefresh: cfg.LoadRefresh, PolicyTick: cfg.PolicyTick,
			Resilience: cfg.Resilience, Tracer: cfg.Tracer,
			Uncalibrated:     cfg.Uncalibrated,
			Discipline:       cfg.Discipline,
			ListenerShards:   cfg.ListenerShards,
			Shards:           cfg.Shards,
			ShardMapMode:     cfg.ShardMapMode,
			GossipEvery:      cfg.GossipEvery,
			AutoscaleMasters: cfg.AutoscaleMasters,
		})
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		nodeURLs[id] = m.URL
		c.Masters = append(c.Masters, m)
	}
	// Backfill master URLs (each master already knows its own).
	for _, m := range c.Masters {
		for _, other := range c.Masters {
			m.SetNodeURL(other.ID, other.URL)
		}
	}
	return c, nil
}

// Shutdown stops every server.
func (c *Cluster) Shutdown() {
	for _, m := range c.Masters {
		m.Shutdown()
	}
	for _, s := range c.Slaves {
		s.Shutdown()
	}
}
