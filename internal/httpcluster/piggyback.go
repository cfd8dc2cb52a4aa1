package httpcluster

import (
	"sync"
	"time"

	"msweb/internal/core"
)

// Load reports. A poll-only master's view of a node is on average half
// a poll interval stale; every dispatch round trip is a fresher sample
// the master already paid for. Nodes therefore attach their load report
// to every frame reply (the 'R' frame's load trailer). The /load poller
// stays as the slow-path fallback that covers idle pairs (no replies →
// no piggybacks) and skips nodes whose piggybacked report is younger
// than the poll interval.
//
// Node side, the report is a cached stamp refreshed at most every
// loadStampTTL: the hot path pays one atomic load — nothing per reply
// is allocated or sampled, which keeps the 0 allocs/op pins and stops
// piggybacking from hammering the rstat windows. Master side, both
// channels write one per-node report table (slots guarded by tiny
// mutexes, one version counter over the table), the newest receipt
// winning — the paper's periodically refreshed rstat() view of each
// node. Placement folds a slot into the policy's working view only
// when it is newer than the one last applied, so the placement path's
// steady-state cost is one atomic load.

// loadStampTTL bounds how stale a node's cached piggyback report may
// be. Well under the default 100 ms poll period, so piggybacked views
// are strictly fresher than polled ones even at modest request rates.
const loadStampTTL = 5 * time.Millisecond

// loadStamp is one immutable generation of a node's self-report.
type loadStamp struct {
	at   int64 // unixnano when sampled
	load core.Load
}

// currentLoad returns the node's freshest self-report, resampling when
// the cached stamp aged out. Concurrent refreshes race benignly: both
// stamps are valid samples.
func (n *Node) currentLoad() *loadStamp {
	if s := n.stamp.Load(); s != nil && time.Now().UnixNano()-s.at < int64(loadStampTTL) {
		return s
	}
	s := &loadStamp{at: time.Now().UnixNano(), load: n.sampleLoad()}
	n.stamp.Store(s)
	return s
}

// sampleLoad reads the node's resources into a load report — the live
// analogue of rstat(), served by /load and carried by frame replies.
func (n *Node) sampleLoad() core.Load {
	return core.Load{
		CPUIdle:   n.res.CPU.IdleRatio(),
		DiskAvail: n.res.Disk.IdleRatio(),
		CPUQueue:  n.res.CPU.QueueLength(),
		DiskQueue: n.res.Disk.QueueLength(),
		Speed:     1,
	}
}

// reportSlot is a master's latest report from one node, by whichever
// channel it came: a poll fetch or a frame reply's load trailer.
type reportSlot struct {
	mu     sync.Mutex
	load   core.Load
	at     int64 // unixnano of receipt (sample time for the own column); 0 = never
	polled bool  // the report came from the poller, not a piggyback
}

// storeReport writes node id's report, received at at, into the report
// table if it is newer than the one held: polls and piggybacks race, and
// the newest receipt wins. A report without a Speed (Speed <= 0) keeps
// the node's known one. A winning write bumps the table's version so
// the next placement folds it in.
func (m *Master) storeReport(id int, l core.Load, at int64, polled bool) {
	s := &m.reports[id]
	s.mu.Lock()
	won := at > s.at
	if won {
		if l.Speed <= 0 {
			l.Speed = s.load.Speed
		}
		s.load, s.at, s.polled = l, at, polled
	}
	s.mu.Unlock()
	if won {
		m.reportVer.Add(1)
	}
}

// storePiggy records the report a frame reply from node id carried.
func (m *Master) storePiggy(id int, l core.Load) {
	if id < 0 || id >= len(m.reports) {
		return
	}
	m.storeReport(id, l, time.Now().UnixNano(), false)
	m.piggyTotal.Add(1)
}

// report returns node id's latest report and its receipt stamp (0 when
// none ever arrived).
func (m *Master) report(id int) (core.Load, int64) {
	s := &m.reports[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load, s.at
}

// reportAge returns how long before now (unixnano) node id's report
// arrived, in seconds, or -1 when none ever did.
func (m *Master) reportAge(id int, now int64) float64 {
	_, at := m.report(id)
	return ageSeconds(at, now)
}

// ageSeconds returns how long before now receipt stamp at lies, in
// seconds, or -1 for the never-received stamp 0. Reporting -1 rather
// than the age since launch keeps a fresh master's metrics
// deterministic.
func ageSeconds(at, now int64) float64 {
	if at == 0 {
		return -1
	}
	return float64(now-at) / 1e9
}

// piggyFresh reports whether node id's latest report is a piggyback
// younger than period at now, which a poll round need not refetch.
func (m *Master) piggyFresh(id int, now int64, period time.Duration) bool {
	s := &m.reports[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at > 0 && !s.polled && now-s.at < int64(period)
}
