package pipeexec

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/units"
)

// Options tune the Spark-style executor.
type Options struct {
	// TasksPerMachine is the slot count — Spark's only concurrency control
	// (§6.6). Default: the machine's core count, Spark's default.
	TasksPerMachine int
	// DirtyLimit is the dirty-byte level above which writeback starts
	// immediately. Default: 5% of machine memory (the kernel's
	// vm.dirty_ratio spirit).
	DirtyLimit int64
	// FlushDelay is the age at which dirty data is written back regardless
	// of pressure. Default 30 s (vm.dirty_expire_centisecs).
	FlushDelay sim.Duration
}

const (
	// chunkBytes is the granularity of the fine-grained pipeline.
	chunkBytes = 8 * units.MB
	// fetchWindow is how many chunk fetches a reduce task keeps in flight
	// (Spark's maxSizeInFlight spirit).
	fetchWindow = 2
)

func (o Options) withDefaults(m *cluster.Machine) Options {
	if o.TasksPerMachine <= 0 {
		o.TasksPerMachine = m.Spec.Cores
	}
	if o.DirtyLimit <= 0 {
		o.DirtyLimit = m.Spec.MemBytes / 20
	}
	if o.FlushDelay <= 0 {
		o.FlushDelay = 30
	}
	return o
}

// Worker runs multitasks the way Spark 1.3 does: one slot per task, each
// task fine-grained-pipelining its own resource use, all tasks contending
// freely for the machine's devices.
type Worker struct {
	machine *cluster.Machine
	eng     *sim.Engine
	fabric  *netsim.Fabric
	opts    Options
	cache   *bufferCache
	peers   func(int) *Worker

	serveCursor int

	// Free lists and scratch for the chunk pipeline (see task.go): pooled
	// runningTask structs, fetch-interleave queues, and serve-side
	// read-then-transfer continuations.
	rtPool      []*runningTask
	fetchQueues [][]chunk
	fetchHeads  []int
	xferPool    []*xferOp
}

// xferOp is a pooled read-then-transfer continuation for the serving side
// of a fetch: the disk read completes, then the fabric transfer starts.
type xferOp struct {
	w     *Worker
	to    int
	bytes int64
	done  func()
	fn    func() // op.run, bound once per struct
}

func (w *Worker) takeXfer(to int, bytes int64, done func()) *xferOp {
	var op *xferOp
	if n := len(w.xferPool); n > 0 {
		op = w.xferPool[n-1]
		w.xferPool[n-1] = nil
		w.xferPool = w.xferPool[:n-1]
	} else {
		op = &xferOp{w: w}
		op.fn = op.run
	}
	op.to, op.bytes, op.done = to, bytes, done
	return op
}

func (op *xferOp) run() {
	w, to, bytes, done := op.w, op.to, op.bytes, op.done
	op.done = nil
	w.xferPool = append(w.xferPool, op)
	w.fabric.Transfer(w.machine.ID, to, bytes, done)
}

// NewWorker builds the Spark-style runtime for one machine.
func NewWorker(m *cluster.Machine, fabric *netsim.Fabric, eng *sim.Engine, opts Options) *Worker {
	w := &Worker{machine: m, eng: eng, fabric: fabric, opts: opts.withDefaults(m)}
	if len(m.Disks) > 0 {
		// The buffer cache holds one sixth of machine memory: on the paper's
		// workers the executor JVM heap claims most of the 60 GB, leaving
		// roughly 10 GB of page cache.
		w.cache = newBufferCache(w, m.Spec.MemBytes/6, w.opts.DirtyLimit, w.opts.FlushDelay)
	}
	return w
}

// SetPeers installs the lookup used for shuffle fetches.
func (w *Worker) SetPeers(lookup func(machineID int) *Worker) { w.peers = lookup }

func (w *Worker) peer(id int) *Worker {
	if w.peers == nil {
		panic("pipeexec: worker peers not wired")
	}
	p := w.peers(id)
	if p == nil {
		panic(fmt.Sprintf("pipeexec: no worker for machine %d", id))
	}
	return p
}

// MachineID reports this worker's machine.
func (w *Worker) MachineID() int { return w.machine.ID }

// MaxConcurrentTasks is the slot count.
func (w *Worker) MaxConcurrentTasks() int { return w.opts.TasksPerMachine }

// Launch starts t in a slot. The driver enforces the slot count.
func (w *Worker) Launch(t *task.Task, done func(*task.TaskMetrics)) {
	if t.Machine != w.machine.ID {
		panic(fmt.Sprintf("pipeexec: task for machine %d launched on %d", t.Machine, w.machine.ID))
	}
	rt := w.newRunningTask()
	rt.t = t
	rt.metrics = task.NewTaskMetrics(t.Stage.ID, t.Index, t.Machine, w.eng.Now(), 0)
	rt.done = done
	rt.start()
}

// serveFetch reads `bytes` of stage `stageID`'s shuffle output on this
// machine (from cache where resident, disk otherwise) and then transfers
// them to machine `to`; done fires at arrival. fromMem skips the disk
// entirely (in-memory shuffle data).
func (w *Worker) serveFetch(stageID int, to int, bytes int64, fromMem bool, done func()) {
	if fromMem {
		w.fabric.Transfer(w.machine.ID, to, bytes, done)
		return
	}
	hit := w.cache.readHitFraction(stageID)
	diskBytes := bytes - int64(float64(bytes)*hit)
	if diskBytes <= 0 {
		w.fabric.Transfer(w.machine.ID, to, bytes, done)
		return
	}
	op := w.takeXfer(to, bytes, done)
	w.machine.Disks[w.nextServeDisk()].ReadStream(diskBytes, op.fn)
}

// serveBlockRead reads an HDFS block chunk on behalf of a remote task.
func (w *Worker) serveBlockRead(disk int, to int, bytes int64, done func()) {
	op := w.takeXfer(to, bytes, done)
	w.machine.Disks[disk].ReadStream(bytes, op.fn)
}

func (w *Worker) nextServeDisk() int {
	d := w.serveCursor
	w.serveCursor = (w.serveCursor + 1) % len(w.machine.Disks)
	return d
}

// DirtyBytes exposes the buffer cache's unflushed volume (tests, memory
// reporting). Zero on diskless machines.
func (w *Worker) DirtyBytes() int64 {
	if w.cache == nil {
		return 0
	}
	return w.cache.dirtyBytes()
}

// Group wires one pipelined Worker per cluster machine.
type Group struct {
	// Workers holds one worker per machine, indexed by machine ID.
	Workers []*Worker
}

// NewGroup builds a Spark-style worker on every machine of c.
func NewGroup(c *cluster.Cluster, opts Options) *Group {
	g := &Group{}
	for _, m := range c.Machines {
		g.Workers = append(g.Workers, NewWorker(m, c.Fabric, c.Engine, opts))
	}
	for _, w := range g.Workers {
		w.SetPeers(func(id int) *Worker { return g.Workers[id] })
	}
	return g
}
