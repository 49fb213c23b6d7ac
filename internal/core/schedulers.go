package core

import (
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
)

// computeScheduler runs one compute monotask per core (§3.3): because it
// never admits more monotasks than cores, every admitted monotask runs at
// the full rate of one core.
type computeScheduler struct {
	w       *Worker
	queue   *rrQueue
	running int
	limit   int
	ops     []*computeOp // free list of in-flight op records
	// QueueLen tracks queued monotasks over time — §3.1's "contention is
	// visible as the queue length for each resource", as a timeline.
	QueueLen resource.Tracker
}

// computeOp carries one admitted compute monotask through its CPU job — and,
// on machines with the memory model, the monotask's memory stream. The two
// legs join: the monotask holds its core until both the CPU work and the
// memory movement finish, so memory contention is visible as longer compute
// service times (the stall a memory-bound task really experiences). The
// struct and its completion thunk are pooled so pump never allocates.
type computeOp struct {
	cs       *computeScheduler
	m        *monotask
	pending  int    // outstanding legs (CPU, and memory when modeled)
	memBytes int64  // bytes the memory leg moved, for the metric
	fn       func() // op.legDone, bound once per struct
}

func (cs *computeScheduler) takeOp() *computeOp {
	if n := len(cs.ops); n > 0 {
		op := cs.ops[n-1]
		cs.ops[n-1] = nil
		cs.ops = cs.ops[:n-1]
		return op
	}
	op := &computeOp{cs: cs}
	op.fn = op.legDone
	return op
}

// legDone fires once per leg; the last leg completes the monotask.
func (op *computeOp) legDone() {
	op.pending--
	if op.pending > 0 {
		return
	}
	op.done()
}

func (op *computeOp) done() {
	cs, m := op.cs, op.m
	memBytes := op.memBytes
	op.m = nil
	op.memBytes = 0
	cs.ops = append(cs.ops, op)
	cs.running--
	metric := task.MonotaskMetric{
		Resource: task.CPUResource,
		Kind:     task.KindCompute,
		Machine:  int32(cs.w.machine.ID),
		Queued:   m.queued,
		Start:    m.start,
		End:      cs.w.eng.Now(),
	}
	m.owner.metrics.MemBytes = memBytes
	cs.pump()
	cs.w.finish(m, metric)
}

func newComputeScheduler(w *Worker) *computeScheduler {
	return &computeScheduler{w: w, queue: newQueue(w), limit: w.machine.CPU.Cores()}
}

// newQueue picks the queue discipline the worker's options select.
func newQueue(w *Worker) *rrQueue {
	if w.opts.DisablePhaseRoundRobin {
		return newFIFOQueue()
	}
	return newRRQueue()
}

func (cs *computeScheduler) submit(m *monotask) {
	m.queued = cs.w.eng.Now()
	cs.queue.push(m)
	cs.pump()
	cs.QueueLen.Set(cs.w.eng.Now(), float64(cs.queue.len()))
}

func (cs *computeScheduler) pump() {
	for cs.running < cs.limit && cs.queue.len() > 0 {
		m := cs.queue.pop()
		cs.QueueLen.Set(cs.w.eng.Now(), float64(cs.queue.len()))
		m.start = cs.w.eng.Now()
		cs.running++
		op := cs.takeOp()
		op.m = m
		op.pending = 1
		if mem := cs.w.machine.Memory; mem != nil && m.spec.memBytes > 0 {
			op.pending = 2
			op.memBytes = m.spec.memBytes
			mem.Stream(m.spec.memBytes, m.spec.memBW, op.fn)
		}
		cs.w.machine.CPU.Run(m.cpuSeconds(), op.fn)
	}
}

// diskScheduler runs a bounded number of monotasks on one drive: one for an
// HDD (concurrency wrecks spinning-disk throughput) and a configurable
// number, default four, for an SSD (§3.3). Its queue round-robins across
// DAG phases so reads are not starved behind writes.
type diskScheduler struct {
	w       *Worker
	disk    *resource.Disk
	queue   *rrQueue
	running int
	limit   int
	ops     []*diskOp // free list of in-flight op records
	// QueueLen tracks queued monotasks over time (§3.1).
	QueueLen resource.Tracker
}

// diskOp carries one disk monotask through the drive. Pooled, with the
// completion thunk reused across monotasks.
type diskOp struct {
	ds *diskScheduler
	m  *monotask
	fn func() // op.done, bound once per struct
}

func (ds *diskScheduler) takeOp() *diskOp {
	if n := len(ds.ops); n > 0 {
		op := ds.ops[n-1]
		ds.ops[n-1] = nil
		ds.ops = ds.ops[:n-1]
		return op
	}
	op := &diskOp{ds: ds}
	op.fn = op.done
	return op
}

func (op *diskOp) done() {
	ds, m := op.ds, op.m
	op.m = nil
	ds.ops = append(ds.ops, op)
	ds.running--
	metric := task.MonotaskMetric{
		Resource: task.DiskResource,
		Kind:     m.kind,
		Machine:  int32(ds.w.machine.ID),
		Queued:   m.queued,
		Start:    m.start,
		End:      ds.w.eng.Now(),
		Bytes:    m.bytes,
	}
	ds.pump()
	if m.onDone != nil {
		m.onDone()
	}
	ds.w.finish(m, metric)
}

func newDiskScheduler(w *Worker, d *resource.Disk, ssdConcurrency int) *diskScheduler {
	limit := 1
	if d.Spec().Kind == resource.SSD {
		limit = ssdConcurrency
	}
	return &diskScheduler{w: w, disk: d, queue: newQueue(w), limit: limit}
}

func (ds *diskScheduler) submit(m *monotask) {
	m.queued = ds.w.eng.Now()
	ds.queue.push(m)
	ds.pump()
	ds.QueueLen.Set(ds.w.eng.Now(), float64(ds.queue.len()))
}

func (ds *diskScheduler) pump() {
	for ds.running < ds.limit && ds.queue.len() > 0 {
		m := ds.queue.pop()
		ds.QueueLen.Set(ds.w.eng.Now(), float64(ds.queue.len()))
		m.start = ds.w.eng.Now()
		ds.running++
		op := ds.takeOp()
		op.m = m
		switch m.kind {
		case task.KindShuffleWrite, task.KindOutputWrite, task.KindMemSpill:
			ds.disk.Write(m.bytes, op.fn)
		default:
			ds.disk.Read(m.bytes, op.fn)
		}
	}
}

// netEntry tracks one multitask's network monotasks inside the network
// scheduler. Pooled; the live entry is reachable via multitask.netEntry.
type netEntry struct {
	mt       *multitask
	pending  []*monotask
	inflight int
	active   bool
	queuedAt sim.Time
}

// networkScheduler is receiver-driven (§3.3): it admits the outstanding
// requests of at most `limit` multitasks at once. Fewer wastes the ingress
// link when one sender is slow; more interleaves multitasks' data so no
// compute monotask can start. Admitting whole multitasks front-loads one
// multitask's data so its compute pipelines with the next multitask's
// fetches.
type networkScheduler struct {
	w       *Worker
	fifo    []*netEntry
	active  int
	limit   int
	entries []*netEntry // free list of admission records
	ops     []*fetchOp  // free list of in-flight fetch records
	// QueueLen tracks multitasks waiting for a network admission slot (§3.1).
	QueueLen resource.Tracker
}

func newNetworkScheduler(w *Worker, limit int) *networkScheduler {
	return &networkScheduler{w: w, limit: limit}
}

func (ns *networkScheduler) takeEntry(mt *multitask) *netEntry {
	var e *netEntry
	if n := len(ns.entries); n > 0 {
		e = ns.entries[n-1]
		ns.entries[n-1] = nil
		ns.entries = ns.entries[:n-1]
	} else {
		e = &netEntry{}
	}
	e.mt = mt
	e.queuedAt = ns.w.eng.Now()
	return e
}

func (ns *networkScheduler) recycleEntry(e *netEntry) {
	e.mt = nil
	for i := range e.pending {
		e.pending[i] = nil
	}
	e.pending = e.pending[:0]
	e.inflight = 0
	e.active = false
	ns.entries = append(ns.entries, e)
}

func (ns *networkScheduler) submit(m *monotask) {
	m.queued = ns.w.eng.Now()
	e := m.owner.netEntry
	if e == nil {
		e = ns.takeEntry(m.owner)
		m.owner.netEntry = e
		ns.fifo = append(ns.fifo, e)
	}
	if e.active {
		ns.launch(e, m)
		return
	}
	e.pending = append(e.pending, m)
	ns.pump()
	ns.QueueLen.Set(ns.w.eng.Now(), float64(len(ns.fifo)))
}

func (ns *networkScheduler) pump() {
	defer func() { ns.QueueLen.Set(ns.w.eng.Now(), float64(len(ns.fifo))) }()
	for ns.active < ns.limit && len(ns.fifo) > 0 {
		e := ns.fifo[0]
		ns.fifo[0] = nil
		ns.fifo = ns.fifo[1:]
		e.active = true
		ns.active++
		pending := e.pending
		for i, m := range pending {
			ns.launch(e, m)
			pending[i] = nil
		}
		e.pending = e.pending[:0]
	}
}

// fetchOp carries one fetch through its grant → serve read → transfer →
// completion sequence. The struct and its three thunks are pooled, so a
// fetch costs no closure allocations.
type fetchOp struct {
	ns         *networkScheduler
	e          *netEntry
	m          *monotask
	release    func()       // matcher grant release, nil without matcher
	startFn    func(func()) // op.start, bound once per struct
	transferFn func()       // op.transfer, bound once per struct
	doneFn     func()       // op.done, bound once per struct
}

func (ns *networkScheduler) takeOp() *fetchOp {
	if n := len(ns.ops); n > 0 {
		op := ns.ops[n-1]
		ns.ops[n-1] = nil
		ns.ops = ns.ops[:n-1]
		return op
	}
	op := &fetchOp{ns: ns}
	op.startFn = op.start
	op.transferFn = op.transfer
	op.doneFn = op.done
	return op
}

// launch issues one fetch: the serving machine reads the bytes (unless they
// are in memory there), then a network flow carries them here. Under the
// matching policy the whole serve+transfer waits for a sender/receiver
// grant first.
func (ns *networkScheduler) launch(e *netEntry, m *monotask) {
	m.start = ns.w.eng.Now()
	e.inflight++
	op := ns.takeOp()
	op.e, op.m = e, m
	if ns.w.matcher != nil {
		ns.w.matcher.request(m.fetch.From, ns.w.machine.ID, op.startFn)
		return
	}
	op.start(nil)
}

func (op *fetchOp) start(release func()) {
	op.release = release
	ns, m := op.ns, op.m
	if m.fetch.FromMem {
		op.transfer()
		return
	}
	remote := ns.w.peer(m.fetch.From)
	kind := task.KindShuffleServeRead
	diskIdx := remote.nextServeDisk()
	if m.fetch == m.owner.t.RemoteRead {
		// Remote HDFS block read: the block's disk is known.
		kind = task.KindInputRead
		diskIdx = m.fetch.FromDisk
	}
	remote.serveRead(m.owner, diskIdx, m.bytes, kind, op.transferFn)
}

func (op *fetchOp) transfer() {
	ns, m := op.ns, op.m
	ns.w.fabric.Transfer(m.fetch.From, ns.w.machine.ID, m.bytes, op.doneFn)
}

func (op *fetchOp) done() {
	ns, e, m := op.ns, op.e, op.m
	if op.release != nil {
		op.release()
	}
	op.e, op.m, op.release = nil, nil, nil
	ns.ops = append(ns.ops, op)
	metric := task.MonotaskMetric{
		Resource: task.NetworkResource,
		Kind:     task.KindNetFetch,
		Machine:  int32(ns.w.machine.ID),
		Queued:   m.queued,
		Start:    m.start,
		End:      ns.w.eng.Now(),
		Bytes:    m.bytes,
	}
	e.inflight--
	if e.inflight == 0 && len(e.pending) == 0 && e.active {
		e.active = false
		ns.active--
		e.mt.netEntry = nil
		ns.recycleEntry(e)
		ns.pump()
	}
	ns.w.finish(m, metric)
}

// queueLen reports multitasks waiting for a network admission slot.
func (ns *networkScheduler) queueLen() int { return len(ns.fifo) }
