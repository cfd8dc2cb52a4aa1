// Package simos models the operating system of one cluster node at the
// fidelity of the paper's simulator (Section 5.1): a UNIX BSD-4.3-style
// CPU scheduler with a multilevel feedback ready queue and periodic
// priority decay, a round-robin disk queue, and a demand-paged memory
// manager stressed by working-set allocations. Each Web request becomes a
// job: an alternating sequence of CPU bursts and page-I/O bursts derived
// from its service demand and CPU weight.
//
// The published simulation constants are the defaults: 10 ms CPU quantum,
// 100 ms priority-update period, 50 µs context switch, 3 ms fork, 8 KB
// pages, and 2 ms average page-I/O burst.
//
// Allocation discipline. A node simulates millions of CPU and disk
// bursts per run, so the steady-state burst loop allocates nothing:
// finished processes recycle through a per-node free list, the ready and
// disk queues are ring buffers that neither strand capacity nor retain
// popped pointers, burst completions are scheduled through the engine's
// typed-event form (sim.AfterCall) with handlers bound once at node
// construction, and the priority decay reuses a node-owned scratch
// buffer. A uint64-per-64-levels occupancy bitmask makes the MLFQ pop a
// trailing-zeros count instead of a level scan.
package simos

import (
	"fmt"
	"math"
	"math/bits"

	"msweb/internal/metrics"
	"msweb/internal/obs"
	"msweb/internal/sim"
)

// Config holds the OS model parameters of one node.
type Config struct {
	// CPUQuantum is the scheduling quantum in seconds (paper: 10 ms).
	CPUQuantum float64
	// PriorityUpdate is the priority-decay period (paper: 100 ms).
	PriorityUpdate float64
	// ContextSwitch is the switch overhead in seconds (paper: 50 µs).
	ContextSwitch float64
	// ForkOverhead is process-creation CPU cost (paper: 3 ms); charged
	// to jobs submitted with Fork set (CGI requests).
	ForkOverhead float64
	// PageIOTime is the mean disk burst per page (paper: 2 ms).
	PageIOTime float64
	// PageSize is the VM page size in bytes (paper: 8 KB).
	PageSize int64
	// TotalPages is physical memory in pages (default 65536 = 512 MB,
	// matching the high-end server calibration of the 1200 req/s
	// SPECweb96 node capability).
	TotalPages int
	// ReadyLevels is the number of multilevel-feedback priority levels.
	ReadyLevels int
}

// DefaultConfig returns the paper's Section 5.2.1 parameter setting.
func DefaultConfig() Config {
	return Config{
		CPUQuantum:     0.010,
		PriorityUpdate: 0.100,
		ContextSwitch:  0.000050,
		ForkOverhead:   0.003,
		PageIOTime:     0.002,
		PageSize:       8192,
		TotalPages:     65536,
		ReadyLevels:    32,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CPUQuantum <= 0:
		return fmt.Errorf("simos: CPU quantum %v must be positive", c.CPUQuantum)
	case c.PriorityUpdate <= 0:
		return fmt.Errorf("simos: priority update period %v must be positive", c.PriorityUpdate)
	case c.ContextSwitch < 0 || c.ForkOverhead < 0:
		return fmt.Errorf("simos: negative overhead")
	case c.PageIOTime <= 0:
		return fmt.Errorf("simos: page I/O time %v must be positive", c.PageIOTime)
	case c.TotalPages <= 0:
		return fmt.Errorf("simos: node needs memory pages")
	case c.ReadyLevels < 1:
		return fmt.Errorf("simos: need at least one ready level")
	}
	return nil
}

// Job describes one request's work. The node turns it into a process
// whose execution alternates CPU bursts with page-I/O bursts:
// IOOps disk operations with IOOps+1 CPU chunks between them, so an
// unloaded node completes the job in exactly CPUTime + IOTime (+ fork).
type Job struct {
	// CPUTime is total CPU demand in seconds.
	CPUTime float64
	// IOTime is total disk demand in seconds; the node splits it into
	// bursts of ~PageIOTime.
	IOTime float64
	// MemPages is the process working set; the VM manager grants pages
	// from the free list and converts any deficit into page-in I/O.
	MemPages int
	// Fork marks process creation (CGI): adds ForkOverhead of CPU.
	Fork bool
	// TraceID, when non-zero, identifies the request in the node's
	// tracer output: each CPU and disk burst of the job is emitted as a
	// phase event tagged with this id.
	TraceID int64
	// Done is invoked at completion with the completion time.
	Done func(now float64)
	// DoneCall, with DoneArg, is the allocation-free completion form:
	// when Done is nil and DoneCall is non-nil, completion invokes
	// DoneCall(DoneArg, now). Hot submitters bind the handler once and
	// thread per-request state through DoneArg instead of building a
	// closure per job.
	DoneCall func(arg any, now float64)
	// DoneArg is the state passed to DoneCall.
	DoneArg any
}

// process is the in-flight representation of a job.
type process struct {
	job      Job
	cpuChunk float64 // full size of each CPU chunk
	curCPU   float64 // remaining CPU in the current chunk
	ioLeft   int     // disk bursts still to perform
	ioBurst  float64 // size of each disk burst
	estcpu   float64 // BSD estcpu: decayed count of consumed quanta
	granted  int     // memory pages granted from the free list
	deficit  int     // pages the free list could not supply
	// refaultEvery injects one page-in per that many completed CPU
	// chunks while memory stays exhausted: the working-set touches of a
	// partially-resident process keep faulting.
	refaultEvery int
	chunksDone   int
	refaults     int // bounded by refaultCap so a starved node cannot livelock
	refaultCap   int
	epoch        uint64 // node epoch at submission; stale after Drain
}

// procRing is a growable power-of-two FIFO ring of processes. Unlike the
// append+[1:] reslice it replaces, popping clears the vacated slot (no
// retained *process pointers keeping dead jobs alive) and the backing
// array is reused forever instead of stranding capacity behind an
// advancing slice head.
type procRing struct {
	buf  []*process
	head int
	n    int
}

func (r *procRing) len() int { return r.n }

// push appends p at the tail, growing the ring when full.
func (r *procRing) push(p *process) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// pop removes and returns the oldest process, clearing the slot so the
// ring keeps no reference to it.
func (r *procRing) pop() *process {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// at returns the i-th oldest process without removing it.
func (r *procRing) at(i int) *process {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *procRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]*process, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// Stats are cumulative node counters.
type Stats struct {
	Submitted       uint64
	Completed       uint64
	ContextSwitches uint64
	Forks           uint64
	PageFaults      uint64 // page-ins forced by free-list deficit
	Aborted         uint64 // processes lost to Drain (node failure)
	DiskOps         uint64
	CPUBusy         float64 // integrated busy seconds
	DiskBusy        float64
}

// Node is one simulated cluster machine.
type Node struct {
	ID  int
	cfg Config
	eng *sim.Engine

	ready []procRing // multilevel feedback queue, level 0 best
	// readyMask is the occupancy bitmask over ready levels (bit l%64 of
	// word l/64 set ⇔ level l non-empty), so popReady is a
	// trailing-zeros count instead of a level scan.
	readyMask []uint64
	running   *process
	lastRun   *process
	cpuBusy   bool
	diskQ     procRing // round-robin disk queue
	diskCur   *process // process whose burst the disk is serving
	diskBusy  bool

	freePages int

	cpuUtil    *metrics.UtilizationTracker
	diskUtil   *metrics.UtilizationTracker
	stats      Stats
	active     int // live processes; the decay timer runs only when > 0
	decayArmed bool
	epoch      uint64 // bumped by Drain; in-flight events of old epochs are ignored

	// freeProcs recycles finished process structs so steady-state
	// Submit allocates nothing.
	freeProcs []*process
	// decayScratch is reused by decayPriorities for the requeue pass.
	decayScratch []*process

	// Typed-event handlers, bound once here so every burst schedules
	// through sim.AfterCall without a closure allocation.
	cpuDoneC  sim.CallFunc
	diskDoneC sim.CallFunc
	decayC    sim.CallFunc

	// tracer, when non-nil, receives a phase event per completed CPU and
	// disk burst of jobs carrying a TraceID. Disabled tracing costs one
	// nil check per burst.
	tracer obs.Tracer
}

// NewNode creates a node. The BSD priority-decay timer is armed lazily
// while the node has live processes so an idle node schedules no events
// and a simulation drains naturally.
func NewNode(eng *sim.Engine, id int, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		ID:        id,
		cfg:       cfg,
		eng:       eng,
		ready:     make([]procRing, cfg.ReadyLevels),
		readyMask: make([]uint64, (cfg.ReadyLevels+63)/64),
		freePages: cfg.TotalPages,
		cpuUtil:   metrics.NewUtilizationTracker(eng.Now()),
		diskUtil:  metrics.NewUtilizationTracker(eng.Now()),
	}
	n.cpuDoneC = n.cpuDoneCall
	n.diskDoneC = n.diskDoneCall
	n.decayC = n.decayTick
	return n, nil
}

func (n *Node) armDecay() {
	if n.decayArmed {
		return
	}
	n.decayArmed = true
	n.eng.AfterCall(n.cfg.PriorityUpdate, n.decayC, nil, 0)
}

// decayTick is the typed-event handler of the priority-update timer.
func (n *Node) decayTick(any, float64) {
	n.decayArmed = false
	n.decayPriorities()
	if n.active > 0 {
		n.armDecay()
	}
}

// Stats returns a copy of the node's counters with busy-time integrals
// up to the current simulation time.
func (n *Node) Stats() Stats {
	st := n.stats
	now := n.eng.Now()
	st.CPUBusy = n.cpuUtil.BusyFraction(now) * now
	st.DiskBusy = n.diskUtil.BusyFraction(now) * now
	return st
}

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// SetTracer installs (or, with nil, removes) the observability tracer
// receiving per-burst phase events for traced jobs.
func (n *Node) SetTracer(t obs.Tracer) { n.tracer = t }

// FreePages returns the current free-list size.
func (n *Node) FreePages() int { return n.freePages }

// QueueLengths returns the ready-queue and disk-queue populations,
// counting the running and in-service processes.
func (n *Node) QueueLengths() (cpu, disk int) {
	for l := range n.ready {
		cpu += n.ready[l].len()
	}
	if n.running != nil {
		cpu++
	}
	disk = n.diskQ.len()
	if n.diskBusy {
		disk++
	}
	return cpu, disk
}

// newProcess pops a recycled process (zeroed) or allocates one.
func (n *Node) newProcess() *process {
	if k := len(n.freeProcs); k > 0 {
		p := n.freeProcs[k-1]
		n.freeProcs[k-1] = nil
		n.freeProcs = n.freeProcs[:k-1]
		return p
	}
	return &process{}
}

// releaseProcess zeroes p — dropping the Job and its completion
// references — and returns it to the node pool. The caller must hold the
// only live reference: a process is released exactly once, at finish or
// when its stale (post-Drain) burst event is swallowed.
func (n *Node) releaseProcess(p *process) {
	if n.lastRun == p {
		// The context-switch charge compares process identity; a
		// recycled struct must not impersonate the process that last
		// held the CPU.
		n.lastRun = nil
	}
	*p = process{}
	n.freeProcs = append(n.freeProcs, p)
}

// Submit accepts a job for execution.
func (n *Node) Submit(j Job) {
	if j.CPUTime < 0 || j.IOTime < 0 || math.IsNaN(j.CPUTime) || math.IsNaN(j.IOTime) {
		panic(fmt.Sprintf("simos: invalid job %+v", j))
	}
	n.stats.Submitted++
	n.active++
	n.armDecay()
	p := n.newProcess()
	p.job = j
	p.epoch = n.epoch

	// Decompose demand into bursts. IOTime splits into ~PageIOTime
	// bursts; the CPU time splits into one chunk per gap so the
	// unloaded execution time is exactly CPUTime + IOTime.
	if j.IOTime > 0 {
		p.ioLeft = int(math.Round(j.IOTime / n.cfg.PageIOTime))
		if p.ioLeft < 1 {
			p.ioLeft = 1
		}
		p.ioBurst = j.IOTime / float64(p.ioLeft)
	}
	cpu := j.CPUTime
	if j.Fork {
		cpu += n.cfg.ForkOverhead
		n.stats.Forks++
	}
	p.cpuChunk = cpu / float64(p.ioLeft+1)
	p.curCPU = p.cpuChunk

	// Memory: grant from the free list; the deficit becomes page-in
	// I/O (demand paging against a stressed free list).
	if j.MemPages > 0 {
		p.granted = j.MemPages
		if p.granted > n.freePages {
			deficit := p.granted - n.freePages
			p.granted = n.freePages
			p.deficit = deficit
			n.stats.PageFaults += uint64(deficit)
			extra := deficit
			if cap := 2*p.ioLeft + 16; extra > cap {
				// Cap runaway paging so one huge allocation cannot
				// wedge the disk for the whole simulation.
				extra = cap
			}
			p.ioLeft += extra
			if p.ioBurst == 0 {
				p.ioBurst = n.cfg.PageIOTime
			}
			// Working-set refaults: the larger the unfunded fraction,
			// the more often execution touches a missing page. The
			// budget carries the same runaway cap as the initial
			// page-ins.
			funded := p.granted
			if funded < 1 {
				funded = 1
			}
			p.refaultEvery = funded/deficit + 1
			p.refaultCap = extra
		}
		n.freePages -= p.granted
	}

	n.enqueueReady(p)
	n.dispatchCPU()
}

// level maps estcpu to a feedback-queue level: each consumed quantum
// pushes the process down; the 100 ms decay pulls it back up.
func (n *Node) level(p *process) int {
	l := int(p.estcpu)
	if l >= n.cfg.ReadyLevels {
		l = n.cfg.ReadyLevels - 1
	}
	if l < 0 {
		l = 0
	}
	return l
}

func (n *Node) enqueueReady(p *process) {
	l := n.level(p)
	n.ready[l].push(p)
	n.readyMask[l>>6] |= 1 << uint(l&63)
}

// popReady removes the best-priority, oldest process: the lowest set bit
// of the occupancy mask names the first non-empty level.
func (n *Node) popReady() *process {
	for w, m := range n.readyMask {
		if m == 0 {
			continue
		}
		l := w<<6 | bits.TrailingZeros64(m)
		q := &n.ready[l]
		p := q.pop()
		if q.n == 0 {
			n.readyMask[w] = m &^ (1 << uint(l&63))
		}
		return p
	}
	return nil
}

func (n *Node) decayPriorities() {
	// BSD-style decay: halve estcpu, then rebuild the level queues so
	// waiting processes migrate back toward the top. The drain-requeue
	// pass runs through a node-owned scratch buffer (a fresh slice here
	// would be one allocation per 100 ms of virtual time per node).
	procs := n.decayScratch[:0]
	for l := range n.ready {
		q := &n.ready[l]
		for q.n > 0 {
			procs = append(procs, q.pop())
		}
	}
	for w := range n.readyMask {
		n.readyMask[w] = 0
	}
	for _, p := range procs {
		p.estcpu /= 2
		n.enqueueReady(p)
	}
	for i := range procs {
		procs[i] = nil // scratch must not pin processes between ticks
	}
	n.decayScratch = procs[:0]
	if n.running != nil {
		n.running.estcpu /= 2
	}
	for i := 0; i < n.diskQ.len(); i++ {
		n.diskQ.at(i).estcpu /= 2
	}
}

// dispatchCPU starts the next ready process if the CPU is free.
func (n *Node) dispatchCPU() {
	if n.cpuBusy {
		return
	}
	p := n.popReady()
	if p == nil {
		return
	}
	n.cpuBusy = true
	n.running = p
	n.cpuUtil.SetBusy(n.eng.Now(), true)

	overhead := 0.0
	if n.lastRun != p {
		overhead = n.cfg.ContextSwitch
		n.stats.ContextSwitches++
	}
	n.lastRun = p

	slice := n.cfg.CPUQuantum
	if p.curCPU < slice {
		slice = p.curCPU
	}
	wall := overhead + slice
	n.eng.AfterCall(wall, n.cpuDoneC, p, slice)
}

// cpuDoneCall unpacks the typed burst-completion event.
func (n *Node) cpuDoneCall(arg any, slice float64) { n.cpuDone(arg.(*process), slice) }

func (n *Node) cpuDone(p *process, slice float64) {
	if p.epoch != n.epoch {
		// Node failed while this burst was in flight. The event held
		// the last live reference to the aborted process; recycle it.
		n.releaseProcess(p)
		return
	}
	n.cpuBusy = false
	n.running = nil
	n.cpuUtil.SetBusy(n.eng.Now(), false)

	if n.tracer != nil && p.job.TraceID != 0 {
		n.tracer.Emit(obs.Event{
			Kind: obs.KindPhaseCPU, Req: p.job.TraceID,
			Time: n.eng.Now(), Node: n.ID, Value: slice,
		})
	}

	p.curCPU -= slice
	p.estcpu += slice / n.cfg.CPUQuantum

	const eps = 1e-12
	if p.curCPU > eps {
		// Quantum expired mid-chunk: back to the feedback queue.
		n.enqueueReady(p)
	} else {
		// Chunk complete: while the node's memory stays exhausted, a
		// partially-resident working set keeps refaulting.
		p.chunksDone++
		if p.refaultEvery > 0 && n.freePages == 0 &&
			p.chunksDone%p.refaultEvery == 0 && p.refaults < p.refaultCap {
			p.ioLeft++
			p.refaults++
			n.stats.PageFaults++
		}
		if p.ioLeft > 0 {
			n.enqueueDisk(p)
		} else {
			n.finish(p)
		}
	}
	n.dispatchCPU()
}

func (n *Node) enqueueDisk(p *process) {
	n.diskQ.push(p)
	n.dispatchDisk()
}

// dispatchDisk serves the disk queue round-robin: one burst per process
// per turn (each process only ever has one burst queued at a time, so
// FIFO order realizes round robin).
func (n *Node) dispatchDisk() {
	if n.diskBusy || n.diskQ.len() == 0 {
		return
	}
	p := n.diskQ.pop()
	n.diskCur = p
	n.diskBusy = true
	n.diskUtil.SetBusy(n.eng.Now(), true)
	n.eng.AfterCall(p.ioBurst, n.diskDoneC, p, 0)
}

// diskDoneCall unpacks the typed disk-burst-completion event.
func (n *Node) diskDoneCall(arg any, _ float64) { n.diskDone(arg.(*process)) }

func (n *Node) diskDone(p *process) {
	if p.epoch != n.epoch {
		// Node failed while this burst was in flight; see cpuDone.
		n.releaseProcess(p)
		return
	}
	n.diskCur = nil
	n.diskBusy = false
	n.diskUtil.SetBusy(n.eng.Now(), false)
	n.stats.DiskOps++

	if n.tracer != nil && p.job.TraceID != 0 {
		n.tracer.Emit(obs.Event{
			Kind: obs.KindPhaseDisk, Req: p.job.TraceID,
			Time: n.eng.Now(), Node: n.ID, Value: p.ioBurst,
		})
	}

	p.ioLeft--
	const eps = 1e-12
	switch {
	case p.ioLeft == 0 && p.cpuChunk <= eps:
		n.finish(p)
	case p.ioLeft > 0 && p.cpuChunk <= eps:
		// Pure-I/O stretches (e.g. page-in backlogs) skip the zero
		// CPU chunk and go straight back to the device queue.
		n.enqueueDisk(p)
	default:
		p.curCPU = p.cpuChunk
		n.enqueueReady(p)
		n.dispatchCPU()
	}
	n.dispatchDisk()
}

func (n *Node) finish(p *process) {
	if p.granted > 0 {
		n.freePages += p.granted
		p.granted = 0
	}
	n.stats.Completed++
	n.active--
	// Recycle before notifying: the completion hook may immediately
	// Submit a follow-up job and should find this struct back in the
	// pool. p is dead past this point.
	done, doneCall, doneArg := p.job.Done, p.job.DoneCall, p.job.DoneArg
	n.releaseProcess(p)
	switch {
	case done != nil:
		done(n.eng.Now())
	case doneCall != nil:
		doneCall(doneArg, n.eng.Now())
	}
}

// Drain models a node crash (or a non-dedicated node being reclaimed):
// every in-flight process is aborted and its original Job returned so
// the cluster can restart the work elsewhere, as the paper's master
// does when a slave fails. Memory returns to the free list; in-flight
// device bursts are discarded.
//
// Queued processes recycle into the node pool immediately. The running
// and disk-serving processes do not: their burst-completion events are
// still in flight holding the pointers, so the epoch check in
// cpuDone/diskDone recycles them when those events fire.
func (n *Node) Drain() []Job {
	var jobs []Job
	collect := func(p *process) {
		if p.granted > 0 {
			n.freePages += p.granted
			p.granted = 0
		}
		jobs = append(jobs, p.job)
	}
	for l := range n.ready {
		q := &n.ready[l]
		for q.n > 0 {
			p := q.pop()
			collect(p)
			n.releaseProcess(p)
		}
	}
	for w := range n.readyMask {
		n.readyMask[w] = 0
	}
	for n.diskQ.len() > 0 {
		p := n.diskQ.pop()
		collect(p)
		n.releaseProcess(p)
	}
	if n.running != nil {
		collect(n.running)
		n.running = nil
	}
	if n.diskCur != nil {
		collect(n.diskCur)
		n.diskCur = nil
	}
	n.epoch++
	n.cpuBusy = false
	n.diskBusy = false
	n.lastRun = nil
	n.cpuUtil.SetBusy(n.eng.Now(), false)
	n.diskUtil.SetBusy(n.eng.Now(), false)
	n.active -= len(jobs)
	n.stats.Aborted += uint64(len(jobs))
	return jobs
}

// CPUIdleRatio returns the idle fraction of the CPU since the previous
// load sample — the rstat()-style load index the RSRC formula consumes.
// Sampling resets the measurement window.
func (n *Node) CPUIdleRatio() float64 {
	return 1 - n.cpuUtil.WindowSample(n.eng.Now())
}

// DiskAvailRatio returns the available fraction of disk bandwidth since
// the previous load sample, resetting the window.
func (n *Node) DiskAvailRatio() float64 {
	return 1 - n.diskUtil.WindowSample(n.eng.Now())
}

// BusyFractions returns lifetime CPU and disk busy fractions, used by
// experiment reports.
func (n *Node) BusyFractions() (cpu, disk float64) {
	now := n.eng.Now()
	return n.cpuUtil.BusyFraction(now), n.diskUtil.BusyFraction(now)
}
