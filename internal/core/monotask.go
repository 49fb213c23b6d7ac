package core

import (
	"repro/internal/sim"
	"repro/internal/task"
)

// Phases order a multitask's monotasks for the per-resource round-robin
// queues (§3.3, "Queueing monotasks"): without phase round-robin, a backlog
// of phase-2 disk writes would starve phase-0 disk reads and the CPU would
// drain completely between bursts.
const (
	phaseInput   = 0
	phaseCompute = 1
	phaseOutput  = 2
	// phaseServe is for shuffle-serve reads issued on behalf of a remote
	// machine; keeping them in their own round-robin class prevents a
	// machine's own task I/O from starving the shuffle data its peers need.
	phaseServe = 3
)

// monotask is one single-resource unit of work. Nodes are the most numerous
// structs a run allocates, so a compute or output node points at its
// template blueprint instead of copying the stage's demand, and the small
// fields are narrowed: the struct is 96 bytes (TestMonotaskNodeSize).
type monotask struct {
	owner *multitask
	// spec is the blueprint of a compute or output monotask: a compute
	// monotask's core-seconds per part and memory leg (machines with the
	// memory model enabled only: bytes moved through the memory system and
	// the per-stream bandwidth cap; the compute monotask holds its core
	// until both the CPU work and the memory movement finish). Nil for the
	// input, spill and serve monotasks built per task.
	spec *nodeSpec
	// fetch is a network monotask's source: the task's RemoteRead or one
	// of its Fetches, which live as long as the multitask.
	fetch *task.Fetch
	bytes int64 // disk and network monotasks

	// DAG wiring.
	dependents []*monotask

	// onDone, when set, runs after the monotask's resource work completes
	// and before finish(); shuffle-serve reads use it to start the network
	// transfer they gate.
	onDone func()

	// Timing, filled in as the monotask advances.
	queued sim.Time
	start  sim.Time

	resource task.Resource
	kind     task.Kind
	phase    int8
	diskIdx  int32 // disk monotasks: which local disk
	waiting  int32 // unfinished dependencies
}

// cpuSeconds is a compute monotask's total demand.
func (m *monotask) cpuSeconds() float64 { return m.spec.deser + m.spec.op + m.spec.ser }

// dependsOn wires m to run after dep.
func (m *monotask) dependsOn(dep *monotask) {
	dep.dependents = append(dep.dependents, m)
	m.waiting++
}

// multitask tracks one in-flight task and its monotask DAG. Structs are
// pooled per worker (see newMultitask/complete in template.go).
type multitask struct {
	t         *task.Task
	worker    *Worker
	remaining int // monotasks not yet finished
	metrics   *task.TaskMetrics
	done      func(*task.TaskMetrics)
	// bufBytes is the memory held while the multitask is in flight: unlike
	// fine-grained pipelining, monotasks materialize a task's whole input
	// and output between resources (§3.5), so the worker charges it up
	// front and releases it at completion.
	bufBytes int64
	// memHeld is the portion of bufBytes the memory model admitted as
	// resident (the rest spilled to disk); released at completion. Always
	// zero on machines without the memory model.
	memHeld int64
	// netEntry is the network scheduler's per-multitask admission record,
	// stored here so the scheduler needs no map.
	netEntry *netEntry
	// completeFn is the engine thunk for complete, bound once per struct.
	completeFn func()
}

// bufferBytes is the §3.5 memory footprint: all input is read into memory
// before compute, and all output is produced before it is written out.
func bufferBytes(t *task.Task) int64 {
	b := t.InputBytes()
	if !t.Stage.ShuffleInMemory {
		b += t.Stage.ShuffleOutBytes
	}
	if !t.Stage.OutputToMem {
		b += t.Stage.OutputBytes
	}
	return b
}

// decompose builds the monotask DAG for t (§3.2, Fig. 4) and returns the
// monotasks with no dependencies, ready for immediate submission. The static
// skeleton (compute cost split, output writes) comes from the worker's
// per-stage template; only the input side — which depends on how the task
// was resolved and placed — is built per task. Node structs come from the
// worker's free list, and the returned slice is worker-owned scratch, valid
// until the next decompose on this worker.
func (w *Worker) decompose(mt *multitask) []*monotask {
	t := mt.t
	tp := w.dagTemplateFor(t.Stage)

	compute := w.stampNode(mt, &tp.compute)
	count := 1
	ready := w.readyScratch[:0]

	// Input monotasks: all ready immediately, all feeding compute.
	if t.DiskReadBytes > 0 {
		rd := w.newMonotask(mt)
		rd.resource = task.DiskResource
		rd.kind = task.KindInputRead
		rd.phase = phaseInput
		rd.bytes = t.DiskReadBytes
		rd.diskIdx = int32(t.DiskReadDisk)
		compute.dependsOn(rd)
		ready = append(ready, rd)
		count++
	}
	if t.RemoteRead != nil {
		// A non-local HDFS block: fetched over the network like shuffle
		// data, with the remote machine reading the block from its disk.
		nf := w.newMonotask(mt)
		nf.resource = task.NetworkResource
		nf.kind = task.KindNetFetch
		nf.phase = phaseInput
		nf.bytes = t.RemoteRead.Bytes
		nf.fetch = t.RemoteRead
		compute.dependsOn(nf)
		ready = append(ready, nf)
		count++
	}
	for i := range t.Fetches {
		f := &t.Fetches[i]
		switch {
		case f.From == t.Machine && f.FromMem:
			// Local in-memory shuffle data: already where the compute
			// monotask needs it; no monotask at all.
		case f.From == t.Machine:
			// Local shuffle data is a plain disk read (Fig. 4, "read
			// shuffle data from local disk").
			rd := w.newMonotask(mt)
			rd.resource = task.DiskResource
			rd.kind = task.KindShuffleServeRead
			rd.phase = phaseInput
			rd.bytes = f.Bytes
			rd.diskIdx = int32(w.nextServeDisk())
			compute.dependsOn(rd)
			ready = append(ready, rd)
			count++
		default:
			nf := w.newMonotask(mt)
			nf.resource = task.NetworkResource
			nf.kind = task.KindNetFetch
			nf.phase = phaseInput
			nf.bytes = f.Bytes
			nf.fetch = f
			compute.dependsOn(nf)
			ready = append(ready, nf)
			count++
		}
	}

	// Memory model (fourth resource): charge the task's buffer against the
	// machine's capacity; bytes that do not fit are staged to a local disk
	// as a spill monotask the compute must wait for. Charging also drives
	// the seeded GC schedule. Diskless machines absorb the overflow (there
	// is nowhere to spill), matching their hardening elsewhere.
	if mem := w.machine.Memory; mem != nil {
		held, spill := mem.Charge(mt.bufBytes)
		mt.memHeld = held
		if spill > 0 && len(w.disks) > 0 {
			sp := w.newMonotask(mt)
			sp.resource = task.DiskResource
			sp.kind = task.KindMemSpill
			sp.phase = phaseInput
			sp.bytes = spill
			sp.diskIdx = int32(w.nextWriteDisk())
			compute.dependsOn(sp)
			ready = append(ready, sp)
			count++
		}
	}

	// Output monotasks from the template. Write-disk choice is dynamic
	// (round-robin or load-aware cursors), so it is stamped here.
	for i := range tp.outputs {
		wr := w.stampNode(mt, &tp.outputs[i])
		wr.diskIdx = int32(w.nextWriteDisk())
		wr.dependsOn(compute)
		count++
	}

	mt.remaining = count
	if len(ready) == 0 {
		// No inputs: the compute monotask starts the DAG.
		ready = append(ready, compute)
	}
	w.readyScratch = ready
	return ready
}

// finish records m's metric and releases its dependents; when the last
// monotask of the multitask finishes, the multitask completes.
func (w *Worker) finish(m *monotask, metric task.MonotaskMetric) {
	mt := m.owner
	mt.metrics.Monotasks = append(mt.metrics.Monotasks, metric)
	for _, d := range m.dependents {
		d.waiting--
		if d.waiting == 0 {
			w.submit(d)
		}
	}
	mt.remaining--
	if mt.remaining == 0 {
		mt.metrics.End = w.eng.Now()
		mt.worker.machine.MemFree(mt.bufBytes)
		if mem := mt.worker.machine.Memory; mem != nil {
			mem.Release(mt.memHeld)
			mt.memHeld = 0
		}
		// Defer the completion callback to the engine so the driver's
		// follow-on launches see consistent scheduler state.
		w.eng.After(0, mt.completeFn)
	}
	w.recycleMono(m)
}
