package httpcluster

import (
	"sync"
	"time"

	"msweb/internal/core"
)

// Piggybacked load reports. A poll-only master's view of a node is on
// average half a poll interval stale; every dispatch round trip is a
// fresher sample the master already paid for. Nodes therefore attach
// their load report to every frame reply (the 'R' frame's load
// trailer), and masters fold it into the scheduling view on receipt.
// The /load poller stays as the slow-path fallback that covers idle
// pairs (no replies → no piggybacks) and skips nodes whose piggybacked
// report is younger than the poll interval.
//
// Node side, the report is a cached stamp refreshed at most every
// loadStampTTL: the hot path pays one atomic load — nothing per reply
// is allocated or sampled, which keeps the 0 allocs/op pins and stops
// piggybacking from hammering the rstat windows. Master side, reports
// land in per-node slots guarded by tiny mutexes and are overlaid onto
// the policy's working view only when the version counter moved — the
// placement path's steady-state cost is one atomic load.

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

// piggySlot is a master's mailbox for one node's piggybacked reports.
type piggySlot struct {
	mu   sync.Mutex
	load core.Load
	at   int64 // unixnano of receipt; 0 = never
}

// storePiggy records a piggybacked report from node id and bumps the
// version so the next placement folds it in.
func (m *Master) storePiggy(id int, l core.Load) {
	if id < 0 || id >= len(m.piggy) {
		return
	}
	now := time.Now().UnixNano()
	s := &m.piggy[id]
	s.mu.Lock()
	s.load = l
	s.at = now
	s.mu.Unlock()
	m.fresh.Touch(id, now)
	m.piggyVer.Add(1)
	m.piggyTotal.Add(1)
}

// peekPiggy returns node id's latest piggybacked report and its
// receipt time (0 when none ever arrived).
func (m *Master) peekPiggy(id int) (core.Load, int64) {
	s := &m.piggy[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load, s.at
}

// applyPiggy overlays piggybacked reports newer than what the working
// view already reflects. Callers hold placeMu. epochMoved means the
// working view was just re-seeded from snapshot s: each node's
// applied-at floor resets to that node's own sample time (s.atNode),
// NOT the snapshot publish time — a report that arrives mid-round is
// older than the publish stamp yet fresher than the node's actual
// sample, and flooring at publish time would silently drop it on every
// epoch move (reordered-report race). Reports newer than the floor are
// re-applied (the copy wiped them); older ones are not (the poll is
// fresher). Steady state with no new reports is one atomic load.
func (m *Master) applyPiggy(epochMoved bool, s *loadSnapshot) {
	v := m.piggyVer.Load()
	if !epochMoved && v == m.piggyApplied {
		return
	}
	m.piggyApplied = v
	for id := range m.piggy {
		if epochMoved {
			floor := s.at
			if id < len(s.atNode) {
				floor = s.atNode[id]
			}
			m.piggyAppliedAt[id] = floor
		}
		l, at := m.peekPiggy(id)
		if at > m.piggyAppliedAt[id] {
			m.piggyAppliedAt[id] = at
			m.workView.ApplyReport(id, l)
		}
	}
}
