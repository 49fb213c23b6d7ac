package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
)

// Options tune a worker's per-resource schedulers. The zero value selects
// the paper's defaults; the remaining fields implement the §8 extensions
// and the ablation switches DESIGN.md calls out.
type Options struct {
	// SSDConcurrency is the number of monotasks each flash-drive scheduler
	// keeps outstanding; the paper found four reaches nearly the maximum
	// throughput (§3.3). Default 4.
	SSDConcurrency int
	// NetMultitaskLimit is how many multitasks may have outstanding network
	// requests at once on a receiving machine (§3.3). Default 4.
	NetMultitaskLimit int
	// DisablePhaseRoundRobin makes the per-resource queues plain FIFO,
	// recreating the §3.3 starvation pathology (reads stuck behind write
	// backlogs) for ablation.
	DisablePhaseRoundRobin bool
	// NoSpareMultitask drops the "+1" from the per-worker concurrency
	// target (§3.4), for ablation: without the spare, a round-robin class
	// can go empty while the worker waits on the job scheduler.
	NoSpareMultitask bool
	// LoadAwareWrites selects write disks by queue length instead of round
	// robin — the disk-scheduling improvement §8 proposes.
	LoadAwareWrites bool
	// NetworkPolicy selects the fetch-scheduling discipline; the default is
	// the paper's receiver-limited scheduler.
	NetworkPolicy NetworkPolicy
}

func (o Options) withDefaults() Options {
	if o.SSDConcurrency <= 0 {
		o.SSDConcurrency = 4
	}
	if o.NetMultitaskLimit <= 0 {
		o.NetMultitaskLimit = 4
	}
	return o
}

// Worker is one machine's monotasks runtime: a Local DAG Scheduler plus
// per-resource schedulers (§3.3).
type Worker struct {
	machine *cluster.Machine
	eng     *sim.Engine
	fabric  *netsim.Fabric
	opts    Options
	peers   func(int) *Worker

	compute *computeScheduler
	disks   []*diskScheduler
	network *networkScheduler
	// matcher is shared across a Group when NetworkPolicy is
	// SenderReceiverMatching; nil otherwise.
	matcher *matcher

	writeCursor int
	serveCursor int

	// Control-plane cache: per-stage DAG templates plus free lists for the
	// per-task structs, so repeated launches of the same stage shape stay
	// off the allocator (see template.go).
	templates    map[*task.StageSpec]*dagTemplate
	monoPool     []*monotask
	mtPool       []*multitask
	readyScratch []*monotask
}

// NewWorker builds the runtime for one machine. Peers must be wired (via
// Group or SetPeers) before any task with remote fetches is launched. The
// worker starts from a retired worker's free lists when the pool holds a
// set (Group.Retire), and records no queue-length timelines on a machine
// whose timelines are stopped (cluster.StopTimelines).
func NewWorker(m *cluster.Machine, fabric *netsim.Fabric, eng *sim.Engine, opts Options) *Worker {
	opts = opts.withDefaults()
	w := &Worker{machine: m, eng: eng, fabric: fabric, opts: opts,
		templates: make(map[*task.StageSpec]*dagTemplate)}
	w.compute = newComputeScheduler(w)
	for _, d := range m.Disks {
		w.disks = append(w.disks, newDiskScheduler(w, d, opts.SSDConcurrency))
	}
	w.network = newNetworkScheduler(w, opts.NetMultitaskLimit)
	if m.TimelinesStopped() {
		w.compute.QueueLen.Stop()
		for _, ds := range w.disks {
			ds.QueueLen.Stop()
		}
		w.network.QueueLen.Stop()
	}
	if fl, ok := retired.Get().(*freeLists); ok {
		w.adopt(fl)
	}
	return w
}

// SetPeers installs the lookup used to reach other machines' workers.
func (w *Worker) SetPeers(lookup func(machineID int) *Worker) { w.peers = lookup }

func (w *Worker) peer(id int) *Worker {
	if w.peers == nil {
		panic("core: worker peers not wired")
	}
	p := w.peers(id)
	if p == nil {
		panic(fmt.Sprintf("core: no worker for machine %d", id))
	}
	return p
}

// MachineID reports which machine this worker runs on.
func (w *Worker) MachineID() int { return w.machine.ID }

// MaxConcurrentTasks is how many multitasks the job scheduler should assign
// to this worker: enough for every resource to be fully subscribed, plus one
// spare so the round-robin queues never go empty while a replacement is
// requested (§3.4).
func (w *Worker) MaxConcurrentTasks() int {
	n := w.machine.CPU.Cores()
	for _, ds := range w.disks {
		n += ds.limit
	}
	n += w.opts.NetMultitaskLimit
	if !w.opts.NoSpareMultitask {
		n++
	}
	return n
}

// Launch decomposes t into monotasks and begins executing them; done fires
// (on the engine) when every monotask has finished.
func (w *Worker) Launch(t *task.Task, done func(*task.TaskMetrics)) {
	if t.Machine != w.machine.ID {
		panic(fmt.Sprintf("core: task for machine %d launched on %d", t.Machine, w.machine.ID))
	}
	mt := w.newMultitask()
	mt.t = t
	mt.worker = w
	mt.done = done
	mt.bufBytes = bufferBytes(t)
	mcap := w.dagTemplateFor(t.Stage).metricsCap(t)
	if w.machine.Memory != nil && len(w.disks) > 0 {
		mcap++ // capacity pressure may add a mem-spill write
	}
	mt.metrics = task.NewTaskMetrics(t.Stage.ID, t.Index, t.Machine, w.eng.Now(), mcap)
	w.machine.MemAlloc(mt.bufBytes)
	ready := w.decompose(mt)
	if len(ready) == 0 {
		panic("core: multitask decomposed to an empty DAG")
	}
	for _, m := range ready {
		w.submit(m)
	}
}

// submit hands a ready monotask to its resource's scheduler.
func (w *Worker) submit(m *monotask) {
	switch m.resource {
	case task.CPUResource:
		w.compute.submit(m)
	case task.DiskResource:
		if len(w.disks) == 0 {
			panic("core: disk monotask on a diskless machine")
		}
		if m.diskIdx < 0 || int(m.diskIdx) >= len(w.disks) {
			panic(fmt.Sprintf("core: disk index %d out of range", m.diskIdx))
		}
		w.disks[m.diskIdx].submit(m)
	case task.NetworkResource:
		w.network.submit(m)
	default:
		panic(fmt.Sprintf("core: unknown resource %v", m.resource))
	}
}

// serveRead runs a disk read on behalf of a remote machine's fetch: the
// read is queued on this machine's disk scheduler in the serve phase, and
// onRead fires when the bytes are in memory, ready to transfer. The
// resulting monotask metric is attributed to the requesting multitask but
// records this machine.
func (w *Worker) serveRead(requester *multitask, diskIdx int, bytes int64, kind task.Kind, onRead func()) {
	if len(w.disks) == 0 {
		panic("core: serve read on a diskless machine")
	}
	if diskIdx < 0 || diskIdx >= len(w.disks) {
		panic(fmt.Sprintf("core: serve disk index %d out of range", diskIdx))
	}
	m := w.newMonotask(requester)
	m.resource = task.DiskResource
	m.kind = kind
	m.phase = phaseServe
	m.bytes = bytes
	m.diskIdx = int32(diskIdx)
	m.onDone = onRead
	requester.remaining++
	w.disks[diskIdx].submit(m)
}

// nextWriteDisk picks a disk for a write monotask: round-robin by default,
// or — with the §8 LoadAwareWrites extension — the disk with the fewest
// queued-plus-running monotasks, breaking ties by index.
func (w *Worker) nextWriteDisk() int {
	if len(w.disks) == 0 {
		return 0
	}
	if w.opts.LoadAwareWrites {
		best, bestLoad := 0, int(^uint(0)>>1)
		for i, ds := range w.disks {
			if load := ds.queue.len() + ds.running; load < bestLoad {
				best, bestLoad = i, load
			}
		}
		return best
	}
	d := w.writeCursor
	w.writeCursor = (w.writeCursor + 1) % len(w.disks)
	return d
}

// nextServeDisk picks a disk for a shuffle-serve read, round-robin.
func (w *Worker) nextServeDisk() int {
	if len(w.disks) == 0 {
		return 0
	}
	d := w.serveCursor
	w.serveCursor = (w.serveCursor + 1) % len(w.disks)
	return d
}

// QueueLengths exposes contention the way the paper argues it should be
// visible (§3.1): as per-resource queue lengths.
func (w *Worker) QueueLengths() map[string]int {
	q := map[string]int{
		"cpu":     w.compute.queue.len(),
		"network": w.network.queueLen(),
	}
	for i, ds := range w.disks {
		q[fmt.Sprintf("disk%d", i)] = ds.queue.len()
	}
	return q
}

// QueueTimelines returns the per-resource queue-length timelines: the
// history of §3.1's contention signal. Keys match QueueLengths.
func (w *Worker) QueueTimelines() map[string]*resource.Tracker {
	q := map[string]*resource.Tracker{
		"cpu":     &w.compute.QueueLen,
		"network": &w.network.QueueLen,
	}
	for i, ds := range w.disks {
		q[fmt.Sprintf("disk%d", i)] = &ds.QueueLen
	}
	return q
}

// Group wires one Worker per cluster machine.
type Group struct {
	// Workers holds one worker per machine, indexed by machine ID.
	Workers []*Worker
}

// NewGroup builds a monotasks worker on every machine of c.
func NewGroup(c *cluster.Cluster, opts Options) *Group {
	g := &Group{}
	var ma *matcher
	if opts.NetworkPolicy == SenderReceiverMatching {
		ma = newMatcher(c.Engine, c.Size())
	}
	for _, m := range c.Machines {
		w := NewWorker(m, c.Fabric, c.Engine, opts)
		w.matcher = ma
		g.Workers = append(g.Workers, w)
	}
	for _, w := range g.Workers {
		w.SetPeers(func(id int) *Worker { return g.Workers[id] })
	}
	return g
}
