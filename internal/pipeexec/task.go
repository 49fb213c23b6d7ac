package pipeexec

import "repro/internal/task"

// chunkKind says where one pipeline chunk's bytes come from.
type chunkKind int

const (
	chunkMem chunkKind = iota // cached input: instantly available
	chunkLocalDisk
	chunkRemoteBlock
	chunkShuffleFetch
)

// chunk is one unit of the fine-grained pipeline.
type chunk struct {
	kind  chunkKind
	bytes int64
	disk  int        // chunkLocalDisk
	fetch task.Fetch // chunkRemoteBlock / chunkShuffleFetch
}

// runningTask drives one multitask through Spark-style record pipelining,
// modeled at chunk granularity: up to fetchWindow chunk reads in flight,
// one chunk computing, writes going to the buffer cache as compute emits
// them. This is the Fig. 1 execution: the task's bottleneck hops between
// resources as the pipeline stages drain and fill.
//
// Structs are pooled per worker; the pipeline-step callbacks handed to the
// devices are bound once per struct lifetime, so a task's chunk churn costs
// no closure allocations.
type runningTask struct {
	w       *Worker
	t       *task.Task
	metrics *task.TaskMetrics
	done    func(*task.TaskMetrics)

	chunks       []chunk
	totalInput   int64
	nextRead     int
	diskInFlight int
	netInFlight  int
	readDone     int
	computeDone  int
	computing    bool
	writing      bool

	// Cumulative accounting keeps CPU seconds and write bytes exactly
	// conserved across uneven chunk sizes.
	bytesComputed                 int64
	cpuCharged                    float64
	shuffleWritten, outputWritten int64

	// pendingDone holds the completion callback between maybeFinish and the
	// deferred complete.
	pendingDone func(*task.TaskMetrics)

	// Callbacks bound once per struct (see newRunningTask).
	onMemReadFn   func()
	onDiskReadFn  func()
	onNetReadFn   func()
	computeDoneFn func()
	resumeFn      func()
	completeFn    func()
}

// newRunningTask takes a struct from the worker's free list (binding its
// callback set on first construction) and resets the per-task state.
func (w *Worker) newRunningTask() *runningTask {
	var rt *runningTask
	if n := len(w.rtPool); n > 0 {
		rt = w.rtPool[n-1]
		w.rtPool[n-1] = nil
		w.rtPool = w.rtPool[:n-1]
	} else {
		rt = &runningTask{}
		rt.onMemReadFn = func() { rt.onRead() }
		rt.onDiskReadFn = func() { rt.diskInFlight--; rt.onRead() }
		rt.onNetReadFn = func() { rt.netInFlight--; rt.onRead() }
		rt.computeDoneFn = func() {
			rt.computing = false
			rt.computeDone++
			rt.writeChunk()
		}
		rt.resumeFn = func() {
			rt.writing = false
			rt.tryCompute()
			rt.maybeFinish()
		}
		rt.completeFn = rt.complete
	}
	rt.w = w
	rt.chunks = rt.chunks[:0]
	rt.totalInput = 0
	rt.nextRead = 0
	rt.diskInFlight = 0
	rt.netInFlight = 0
	rt.readDone = 0
	rt.computeDone = 0
	rt.computing = false
	rt.writing = false
	rt.bytesComputed = 0
	rt.cpuCharged = 0
	rt.shuffleWritten = 0
	rt.outputWritten = 0
	return rt
}

func (rt *runningTask) start() {
	rt.buildChunks()
	rt.issueReads()
	rt.tryCompute() // mem-only input can begin immediately
}

// appendChunks splits total bytes into chunkBytes-sized copies of proto.
func appendChunks(chunks []chunk, total int64, proto chunk) []chunk {
	for total > 0 {
		b := chunkBytes
		if total < b {
			b = total
		}
		total -= b
		proto.bytes = b
		chunks = append(chunks, proto)
	}
	return chunks
}

// buildChunks flattens the task's input sources into pipeline chunks.
func (rt *runningTask) buildChunks() {
	t := rt.t
	chunks := rt.chunks[:0]
	if t.MemReadBytes > 0 {
		chunks = appendChunks(chunks, t.MemReadBytes, chunk{kind: chunkMem})
	}
	if t.DiskReadBytes > 0 {
		chunks = appendChunks(chunks, t.DiskReadBytes, chunk{kind: chunkLocalDisk, disk: t.DiskReadDisk})
	}
	if t.RemoteRead != nil {
		chunks = appendChunks(chunks, t.RemoteRead.Bytes, chunk{kind: chunkRemoteBlock, fetch: *t.RemoteRead})
	}
	if len(t.Fetches) > 0 {
		// Build each source's chunk queue, then interleave them round-robin
		// starting at a per-task offset. Spark randomizes remote block
		// order precisely so that concurrent reducers do not all hammer the
		// same map host in lockstep; deterministic striping gives the same
		// load spreading without randomness. Queues and their head cursors
		// are worker-owned scratch.
		w := rt.w
		queues := w.fetchQueues
		if cap(queues) < len(t.Fetches) {
			queues = make([][]chunk, len(t.Fetches))
		} else {
			queues = queues[:len(t.Fetches)]
		}
		heads := w.fetchHeads
		if cap(heads) < len(queues) {
			heads = make([]int, len(queues))
		} else {
			heads = heads[:len(queues)]
		}
		for i, f := range t.Fetches {
			kind := chunkShuffleFetch
			if f.From == t.Machine && f.FromMem {
				kind = chunkMem // local in-memory shuffle data
			}
			queues[i] = appendChunks(queues[i][:0], f.Bytes, chunk{kind: kind, fetch: f})
			heads[i] = 0
		}
		for next := t.Index % max(1, len(queues)); ; next = (next + 1) % len(queues) {
			empty := true
			for off := 0; off < len(queues); off++ {
				q := (next + off) % len(queues)
				if heads[q] < len(queues[q]) {
					chunks = append(chunks, queues[q][heads[q]])
					heads[q]++
					next = q
					empty = false
					break
				}
			}
			if empty {
				break
			}
		}
		w.fetchQueues = queues
		w.fetchHeads = heads
	}
	if len(chunks) == 0 {
		// Generator stages (no input): a single all-compute chunk.
		chunks = append(chunks, chunk{kind: chunkMem, bytes: 1})
	}
	rt.chunks = chunks
	for _, c := range chunks {
		rt.totalInput += c.bytes
	}
}

// onRead is the shared tail of every chunk-read completion.
func (rt *runningTask) onRead() {
	rt.readDone++
	rt.tryCompute()
	rt.issueReads()
}

// issueReads keeps chunk reads in flight, in order: one outstanding local
// disk chunk (a task's own chunk reads are sequential readahead — issuing
// more would spuriously self-contend), and up to fetchWindow network chunks
// (overlapping a remote serve with an in-flight transfer).
func (rt *runningTask) issueReads() {
	for rt.nextRead < len(rt.chunks) {
		c := rt.chunks[rt.nextRead]
		isNet := c.kind == chunkRemoteBlock || c.kind == chunkShuffleFetch
		if isNet && rt.netInFlight >= fetchWindow {
			return
		}
		if !isNet && c.kind == chunkLocalDisk && rt.diskInFlight >= 1 {
			return
		}
		rt.nextRead++
		var onRead func()
		switch {
		case isNet:
			rt.netInFlight++
			onRead = rt.onNetReadFn
		case c.kind == chunkLocalDisk:
			rt.diskInFlight++
			onRead = rt.onDiskReadFn
		default:
			onRead = rt.onMemReadFn
		}
		switch c.kind {
		case chunkMem:
			rt.w.eng.After(0, onRead)
		case chunkLocalDisk:
			rt.w.machine.Disks[c.disk].ReadStream(c.bytes, onRead)
		case chunkRemoteBlock:
			rt.w.peer(c.fetch.From).serveBlockRead(c.fetch.FromDisk, rt.t.Machine, c.bytes, onRead)
		case chunkShuffleFetch:
			if c.fetch.From == rt.t.Machine {
				// Local shuffle data: read through the local cache/disk.
				rt.localShuffleRead(c, onRead)
			} else {
				rt.w.peer(c.fetch.From).serveFetch(c.fetch.Stage, rt.t.Machine, c.bytes, c.fetch.FromMem, onRead)
			}
		}
	}
}

// localShuffleRead reads a local shuffle chunk: cache hits are free.
func (rt *runningTask) localShuffleRead(c chunk, onRead func()) {
	hit := rt.w.cache.readHitFraction(c.fetch.Stage)
	diskBytes := c.bytes - int64(float64(c.bytes)*hit)
	if diskBytes <= 0 {
		rt.w.eng.After(0, onRead)
		return
	}
	rt.w.machine.Disks[rt.w.nextServeDisk()].ReadStream(diskBytes, onRead)
}

// tryCompute processes the next read-but-uncomputed chunk. The task has one
// thread (§2.1), so at most one chunk computes at a time, and a synchronous
// write blocks it.
func (rt *runningTask) tryCompute() {
	if rt.computing || rt.writing || rt.computeDone >= rt.readDone {
		return
	}
	rt.computing = true
	cpu := rt.cpuShare(rt.chunks[rt.computeDone].bytes)
	rt.w.machine.CPU.Run(cpu, rt.computeDoneFn)
}

// cpuShare charges the chunk's proportional share of the task's CPU time,
// conserving the total exactly.
func (rt *runningTask) cpuShare(bytes int64) float64 {
	total := rt.t.Stage.DeserCPU + rt.t.Stage.OpCPU + rt.t.Stage.SerCPU
	rt.bytesComputed += bytes
	target := total * float64(rt.bytesComputed) / float64(rt.totalInput)
	share := target - rt.cpuCharged
	rt.cpuCharged = target
	return share
}

// writeChunk emits the just-computed chunk's proportional share of shuffle
// and output bytes, then lets the pipeline continue.
func (rt *runningTask) writeChunk() {
	st := rt.t.Stage
	frac := float64(rt.bytesComputed) / float64(rt.totalInput)
	shuffleTarget := int64(float64(st.ShuffleOutBytes) * frac)
	outputTarget := int64(float64(st.OutputBytes) * frac)
	if rt.computeDone == len(rt.chunks) {
		shuffleTarget, outputTarget = st.ShuffleOutBytes, st.OutputBytes
	}
	shuffleBytes := shuffleTarget - rt.shuffleWritten
	outputBytes := outputTarget - rt.outputWritten
	rt.shuffleWritten, rt.outputWritten = shuffleTarget, outputTarget

	var toCache int64
	if st.ShuffleOutBytes > 0 && !st.ShuffleInMemory {
		rt.w.cache.write(st.ID, shuffleBytes)
		toCache += shuffleBytes
	}
	if st.OutputBytes > 0 && !st.OutputToMem {
		rt.w.cache.write(outputKey, outputBytes)
		toCache += outputBytes
	}
	if toCache > 0 && rt.w.cache.throttled() {
		// Dirty data beyond the kernel's hard limit: the writing thread is
		// throttled until writeback catches up — the OS, not the framework,
		// decides when the task runs again (§2.2).
		rt.writing = true
		rt.w.cache.waitWritable(rt.resumeFn)
	}
	rt.tryCompute()
	rt.maybeFinish()
}

// maybeFinish completes the task once every chunk is computed and no write
// is outstanding.
func (rt *runningTask) maybeFinish() {
	if rt.computeDone < len(rt.chunks) || rt.writing || rt.computing {
		return
	}
	if rt.done == nil {
		return // completion already scheduled
	}
	rt.metrics.End = rt.w.eng.Now()
	rt.pendingDone = rt.done
	rt.done = nil
	rt.w.eng.After(0, rt.completeFn)
}

// complete delivers the metrics and recycles the struct. Fields are
// extracted and the struct pooled before the callback runs, so a follow-on
// Launch inside the callback may immediately reuse it.
func (rt *runningTask) complete() {
	w, done, metrics := rt.w, rt.pendingDone, rt.metrics
	rt.pendingDone = nil
	rt.metrics = nil
	rt.t = nil
	w.rtPool = append(w.rtPool, rt)
	done(metrics)
}
