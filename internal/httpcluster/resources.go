// Package httpcluster is the live-execution substrate of the Table 3
// validation: a master/slave Web cluster made of real net/http servers
// on loopback, exercising the same core scheduling policies as the
// simulator — real TCP dispatch, real goroutine concurrency, real
// wall-clock timing, periodic load polling.
//
// Substitution note (see DESIGN.md): the paper validates on six Sun
// Ultra-1 workstations. Here every node's CPU and disk are *virtual
// time-shared resources*: a resource serves its queue in round-robin
// slices and "executes" a slice by sleeping wall-clock time. Sleeping
// goroutines cost no host CPU, so a laptop can faithfully emulate the
// queueing behaviour of N machines; the scheduling code paths (RSRC
// selection, reservation, load reporting) are identical to production
// paths. Node capability is calibrated like the paper's: 110 static
// requests/second per node.
package httpcluster

import (
	"sync"
	"sync/atomic"
	"time"

	"msweb/internal/metrics"
)

// rrJob is one unit of work on a virtual resource. Jobs are pooled:
// completion is signalled by a buffered send (not a close), so the
// channel survives reuse and the request path stops allocating a job
// and a channel per resource visit.
type rrJob struct {
	remaining time.Duration
	done      chan struct{}
}

var jobPool = sync.Pool{New: func() any { return &rrJob{done: make(chan struct{}, 1)} }}

// sleepResolution is the shortest slice worth a real sleep. Below OS
// timer granularity a sleep rounds *up* (a 3 µs request costs ~1 ms-class
// latency), so the substrate would deliver far more service than asked;
// sub-resolution inline grants are instead accounted as delivered
// instantly (round-down), the smaller of the two errors.
const sleepResolution = 20 * time.Microsecond

// Resource is a virtual time-shared device: jobs queue FIFO and are
// served in round-robin slices of at most quantum, approximating the
// processor-sharing behaviour of a real CPU (or the paper's round-robin
// disk queue). Concurrency-safe.
type Resource struct {
	quantum time.Duration
	fast    bool

	mu      sync.Mutex
	queue   []*rrJob
	running bool
	util    *metrics.UtilizationTracker
	origin  time.Time
	closed  bool

	// Uncalibrated ("fast mode") accounting. With fast set, Use never
	// sleeps: demand is charged to a virtual clock instead, so /exec
	// completes at CPU speed while RSRC still sees the same busy time a
	// calibrated run would produce. vbusy accumulates delivered virtual
	// service; vhorizon is the virtual completion instant of all work
	// admitted so far (unixnano), whose excess over wall-clock now is
	// the virtual backlog behind QueueLength.
	vbusy    atomic.Int64
	vhorizon atomic.Int64
	// fastMu guards the rstat-window sample state below (cold path:
	// only load reports take it).
	fastMu       sync.Mutex
	fastLastWall int64 // unixnano of the last window sample
	fastLastBusy int64 // vbusy at the last window sample
}

// NewResource creates a resource with the given slicing quantum.
func NewResource(quantum time.Duration, origin time.Time) *Resource {
	if quantum <= 0 {
		quantum = 10 * time.Millisecond
	}
	return &Resource{
		quantum: quantum,
		util:    metrics.NewUtilizationTracker(0),
		origin:  origin,
	}
}

// NewFastResource creates an uncalibrated resource: demand is accounted
// on a virtual clock instead of being slept off, so callers return at
// CPU speed while load reports (IdleRatio, QueueLength, BusyFraction)
// still reflect the offered demand exactly as a calibrated resource's
// would under the same arrivals.
func NewFastResource(quantum time.Duration, origin time.Time) *Resource {
	r := NewResource(quantum, origin)
	r.fast = true
	now := time.Now()
	r.fastLastWall = now.UnixNano()
	return r
}

func (r *Resource) now() float64 { return time.Since(r.origin).Seconds() }

// Use blocks until d of virtual service has been delivered to the
// caller, sharing the resource round-robin with concurrent users.
// Non-positive durations return immediately.
func (r *Resource) Use(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.fast {
		r.useFast(d)
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	// Inline grant: an idle resource serving a job no longer than one
	// quantum would run exactly this job's single slice and nothing
	// else, so the caller sleeps in place — no job, no queue, no two
	// goroutine handoffs. Contended or long jobs take the queued path,
	// preserving round-robin fairness.
	if !r.running && len(r.queue) == 0 && d <= r.quantum {
		r.running = true
		r.util.SetBusy(r.now(), true)
		r.mu.Unlock()
		if d >= sleepResolution {
			time.Sleep(d)
		}
		r.mu.Lock()
		if len(r.queue) > 0 && !r.closed {
			// Arrivals queued behind the inline grant; hand them to a
			// serve goroutine (running stays true — we own the flag).
			go r.serve()
		} else {
			r.running = false
			r.util.SetBusy(r.now(), false)
		}
		r.mu.Unlock()
		return
	}
	j := jobPool.Get().(*rrJob)
	j.remaining = d
	r.queue = append(r.queue, j)
	if !r.running {
		r.running = true
		r.util.SetBusy(r.now(), true)
		go r.serve()
	}
	r.mu.Unlock()
	<-j.done
	jobPool.Put(j)
}

// serve drains the queue in round-robin slices.
func (r *Resource) serve() {
	for {
		r.mu.Lock()
		if len(r.queue) == 0 || r.closed {
			r.running = false
			r.util.SetBusy(r.now(), false)
			if r.closed {
				for _, j := range r.queue {
					j.done <- struct{}{}
				}
				r.queue = nil
			}
			r.mu.Unlock()
			return
		}
		j := r.queue[0]
		r.queue = r.queue[1:]
		slice := j.remaining
		if slice > r.quantum {
			slice = r.quantum
		}
		r.mu.Unlock()

		// Sleep overshoot (timer granularity, scheduler latency) is
		// counted as delivered service: otherwise every slice leaks a
		// fraction of the node's capacity and heavily loaded clusters
		// sit past their nominal utilization knee.
		start := time.Now()
		time.Sleep(slice)
		elapsed := time.Since(start)
		if elapsed < slice {
			elapsed = slice
		}
		j.remaining -= elapsed
		if j.remaining <= 0 {
			j.done <- struct{}{}
			continue
		}
		r.mu.Lock()
		if r.closed {
			j.done <- struct{}{}
			r.mu.Unlock()
			return
		}
		r.queue = append(r.queue, j)
		r.mu.Unlock()
	}
}

// useFast charges d to the virtual clock: two atomic updates, no sleep,
// no queue, no goroutine handoff. The horizon CAS treats the resource as
// a unit-rate server — work admitted while a backlog stands extends the
// backlog, exactly as it would extend the calibrated queue.
func (r *Resource) useFast(d time.Duration) {
	r.vbusy.Add(int64(d))
	now := time.Now().UnixNano()
	for {
		h := r.vhorizon.Load()
		nh := h
		if nh < now {
			nh = now
		}
		nh += int64(d)
		if r.vhorizon.CompareAndSwap(h, nh) {
			return
		}
	}
}

// QueueLength returns the number of queued (not yet finished) jobs. In
// fast mode the count is inferred from the virtual backlog in units of
// the slicing quantum (the calibrated resource's notion of "one job's
// worth of outstanding service"), so load reports and the queue gauges
// keep a meaningful signal without wall-clock queues to count.
func (r *Resource) QueueLength() int {
	if r.fast {
		backlog := r.vhorizon.Load() - time.Now().UnixNano()
		if backlog <= 0 {
			return 0
		}
		return 1 + int(backlog/int64(r.quantum))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.queue)
	if r.running {
		n++
	}
	return n
}

// IdleRatio samples the idle fraction since the last call, resetting the
// window (the live analogue of the simulator's rstat window sample).
func (r *Resource) IdleRatio() float64 {
	if r.fast {
		return 1 - r.fastWindowSample()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return 1 - r.util.WindowSample(r.now())
}

// fastWindowSample returns the virtual busy fraction since the previous
// sample and advances the window — the same sample-and-reset contract
// as the calibrated UtilizationTracker window. Demand beyond capacity
// clamps at 1, as a saturated real resource would report.
func (r *Resource) fastWindowSample() float64 {
	now := time.Now().UnixNano()
	busy := r.vbusy.Load()
	r.fastMu.Lock()
	defer r.fastMu.Unlock()
	wallDelta := now - r.fastLastWall
	busyDelta := busy - r.fastLastBusy
	if wallDelta <= 0 {
		return 0
	}
	r.fastLastWall = now
	r.fastLastBusy = busy
	frac := float64(busyDelta) / float64(wallDelta)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// BusyFraction returns the lifetime busy fraction without touching the
// rstat window — the read the /metrics exporter uses, so scrapes never
// disturb the load samples the masters poll.
func (r *Resource) BusyFraction() float64 {
	if r.fast {
		wall := time.Since(r.origin)
		if wall <= 0 {
			return 0
		}
		frac := float64(r.vbusy.Load()) / float64(wall)
		if frac > 1 {
			frac = 1
		}
		return frac
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.util.BusyFraction(r.now())
}

// Close unblocks all waiters; subsequent Use calls return immediately.
func (r *Resource) Close() {
	r.mu.Lock()
	r.closed = true
	queue := r.queue
	r.queue = nil
	r.mu.Unlock()
	for _, j := range queue {
		j.done <- struct{}{}
	}
}

// NodeResources bundles a node's virtual CPU and disk.
type NodeResources struct {
	CPU  *Resource
	Disk *Resource
}

// NewNodeResources creates a node's devices with the paper's quanta:
// 10 ms CPU slices, 2 ms disk bursts, both scaled by timeScale. With
// uncalibrated set, both devices run in fast mode: service durations
// are charged to virtual clocks instead of being slept off, so the node
// executes at CPU speed while its load reports still reflect the
// offered demand (see NewFastResource).
func NewNodeResources(origin time.Time, timeScale float64, uncalibrated bool) *NodeResources {
	if timeScale <= 0 {
		timeScale = 1
	}
	mk := NewResource
	if uncalibrated {
		mk = NewFastResource
	}
	return &NodeResources{
		CPU:  mk(time.Duration(float64(10*time.Millisecond)*timeScale), origin),
		Disk: mk(time.Duration(float64(2*time.Millisecond)*timeScale), origin),
	}
}

// Execute runs a request's work: alternating CPU and disk phases like
// the simulator's burst decomposition, but with two coarse phases per
// request (CPU share first, then disk), which the round-robin slicing
// interleaves with concurrent requests anyway.
func (n *NodeResources) Execute(demand time.Duration, w float64) {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	cpu := time.Duration(float64(demand) * w)
	disk := demand - cpu
	n.CPU.Use(cpu)
	n.Disk.Use(disk)
}

// Close shuts both devices down.
func (n *NodeResources) Close() {
	n.CPU.Close()
	n.Disk.Close()
}
