// Package pipeexec implements the baseline the paper compares against: a
// Spark-1.3-style executor that runs multitasks in slots and fine-grained-
// pipelines CPU, disk, and network inside each task (§2.1).
//
// It deliberately reproduces the three properties that make Spark's
// performance hard to reason about (§2.2):
//
//   - tasks interleave chunk-granularity resource use, so machine-level
//     utilization oscillates between resources (Fig. 2);
//   - concurrent tasks contend directly on each disk (no per-resource
//     queueing), collapsing HDD throughput;
//   - disk writes go to an OS buffer cache whose background flusher issues
//     device writes outside the framework's control.
//
// Accordingly, its TaskMetrics carry no monotask breakdown — only task
// spans — which is exactly the observability gap Figs. 15–17 demonstrate.
package pipeexec

import (
	"repro/internal/sim"
)

// Cache keys are stage IDs for shuffle output plus outputKey for job
// output; integer keys keep the hot write/read paths off fmt.Sprintf.
const outputKey = -1

// cacheEntry tracks one logical file's residency in the buffer cache.
type cacheEntry struct {
	key      int
	resident int64 // bytes currently in cache (after eviction)
	written  int64 // bytes ever written under this key
}

// bufferCache models the OS page cache on one machine: writes complete into
// memory immediately; a background flusher later issues the device writes,
// contending with the framework's reads (§2.2, third challenge). Reads of
// recently written data (shuffle outputs) hit the cache.
type bufferCache struct {
	w          *Worker
	capacity   int64        // resident-byte cap; LRU eviction beyond it
	dirtyLimit int64        // writeback starts immediately above this
	flushDelay sim.Duration // age at which clean-behind writeback starts
	flushChunk int64

	entries map[int]*cacheEntry
	lru     []int
	total   int64

	dirty      int64 // written, not yet queued for flush
	flushQueue int64 // queued for flush, not yet issued
	inFlight   int64 // issued to a disk, not yet durable
	flushing   []bool

	// waiters are tasks throttled by balance_dirty_pages-style writeback
	// pressure: when unflushed bytes exceed hardLimit, writers block until
	// the flusher drains below it. This is the §2.2 behaviour that makes
	// Fig. 2's "all eight tasks block waiting on the two disks" moments.
	hardLimit int64
	waiters   []func()

	expirePool []*expireOp
	flushPool  []*flushOp
}

// expireOp is a pooled clean-behind timer: write schedules one per write,
// so the thunk handed to the engine must not be a fresh closure each time.
type expireOp struct {
	c     *bufferCache
	bytes int64
	fn    func() // op.run, bound once per struct
}

func (c *bufferCache) takeExpire(bytes int64) *expireOp {
	var op *expireOp
	if n := len(c.expirePool); n > 0 {
		op = c.expirePool[n-1]
		c.expirePool[n-1] = nil
		c.expirePool = c.expirePool[:n-1]
	} else {
		op = &expireOp{c: c}
		op.fn = op.run
	}
	op.bytes = bytes
	return op
}

func (op *expireOp) run() {
	c, bytes := op.c, op.bytes
	c.expirePool = append(c.expirePool, op)
	c.expire(bytes)
}

// flushOp is one pooled background write: disk index and chunk size carried
// through the device callback.
type flushOp struct {
	c     *bufferCache
	d     int
	chunk int64
	fn    func() // op.run, bound once per struct
}

func (c *bufferCache) takeFlush(d int, chunk int64) *flushOp {
	var op *flushOp
	if n := len(c.flushPool); n > 0 {
		op = c.flushPool[n-1]
		c.flushPool[n-1] = nil
		c.flushPool = c.flushPool[:n-1]
	} else {
		op = &flushOp{c: c}
		op.fn = op.run
	}
	op.d, op.chunk = d, chunk
	return op
}

func (op *flushOp) run() {
	c, d, chunk := op.c, op.d, op.chunk
	c.flushPool = append(c.flushPool, op)
	c.flushing[d] = false
	c.inFlight -= chunk
	c.pumpFlush()
	c.releaseWaiters()
}

func newBufferCache(w *Worker, capacity, dirtyLimit int64, flushDelay sim.Duration) *bufferCache {
	return &bufferCache{
		w:          w,
		capacity:   capacity,
		dirtyLimit: dirtyLimit,
		flushDelay: flushDelay,
		flushChunk: 32 << 20,
		entries:    make(map[int]*cacheEntry),
		flushing:   make([]bool, len(w.machine.Disks)),
		hardLimit:  2 * dirtyLimit,
	}
}

// write completes a buffered write: the bytes are resident (and dirty)
// immediately. Flushing is triggered by age (flushDelay) or by pressure
// (dirtyLimit), like the kernel's dirty_expire / dirty_ratio pair.
func (c *bufferCache) write(key int, bytes int64) {
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{key: key}
		c.entries[key] = e
		c.lru = append(c.lru, key)
	} else if e.resident == 0 {
		// Fully evicted earlier: the key left the LRU list and must rejoin
		// it, or its new residency could never be evicted.
		c.ensureInLRU(key)
	}
	e.resident += bytes
	e.written += bytes
	c.total += bytes
	c.dirty += bytes
	c.evict()
	if c.dirty > c.dirtyLimit {
		// Pressure writeback: everything above the limit queues now.
		over := c.dirty - c.dirtyLimit
		c.dirty -= over
		c.flushQueue += over
		c.pumpFlush()
	}
	if c.flushDelay >= 0 {
		c.w.eng.After(c.flushDelay, c.takeExpire(bytes).fn)
	}
}

// expire moves aged dirty bytes to the flush queue (clean-behind).
func (c *bufferCache) expire(bytes int64) {
	if bytes > c.dirty {
		bytes = c.dirty // already flushed under pressure
	}
	if bytes <= 0 {
		return
	}
	c.dirty -= bytes
	c.flushQueue += bytes
	c.pumpFlush()
}

// pumpFlush keeps one background write in flight per disk while the flush
// queue is non-empty. These device writes contend with task reads.
func (c *bufferCache) pumpFlush() {
	for d := range c.flushing {
		if c.flushing[d] || c.flushQueue == 0 {
			continue
		}
		chunk := c.flushChunk
		if chunk > c.flushQueue {
			chunk = c.flushQueue
		}
		c.flushQueue -= chunk
		c.inFlight += chunk
		c.flushing[d] = true
		c.w.machine.Disks[d].WriteStream(chunk, c.takeFlush(d, chunk).fn)
	}
}

// throttled reports whether writers must currently block on writeback.
func (c *bufferCache) throttled() bool {
	return c.dirtyBytes() > c.hardLimit
}

// waitWritable calls resume once unflushed bytes drop below the hard limit
// (immediately if they already are).
func (c *bufferCache) waitWritable(resume func()) {
	if !c.throttled() {
		c.w.eng.After(0, resume)
		return
	}
	c.waiters = append(c.waiters, resume)
}

// releaseWaiters wakes throttled writers FIFO while below the hard limit.
func (c *bufferCache) releaseWaiters() {
	for len(c.waiters) > 0 && !c.throttled() {
		resume := c.waiters[0]
		c.waiters[0] = nil
		c.waiters = c.waiters[1:]
		resume()
	}
}

// readHitFraction reports what fraction of a read against key is served
// from cache. Without per-reader offsets, residency is treated as uniform
// over the file: resident/written. Reads do not promote the key: shuffle
// data is read once per reducer, so the kernel's use-once heuristics let
// streaming writes push it out — which is why large on-disk shuffles end up
// reading from disk mid-stage.
func (c *bufferCache) readHitFraction(key int) float64 {
	e := c.entries[key]
	if e == nil || e.written == 0 {
		return 0
	}
	return float64(e.resident) / float64(e.written)
}

// evict drops LRU residency above capacity. Dirty bytes still reach the
// flush queue through write's accounting, so eviction affects only future
// read hits.
func (c *bufferCache) evict() {
	for c.total > c.capacity && len(c.lru) > 0 {
		key := c.lru[0]
		e := c.entries[key]
		need := c.total - c.capacity
		if e.resident > need {
			e.resident -= need
			c.total -= need
			return
		}
		c.total -= e.resident
		e.resident = 0
		c.lru = c.lru[1:]
	}
}

// ensureInLRU appends key if it is not present.
func (c *bufferCache) ensureInLRU(key int) {
	for _, k := range c.lru {
		if k == key {
			return
		}
	}
	c.lru = append(c.lru, key)
}

// dirtyBytes reports all not-yet-durable bytes (dirty + queued + issued),
// the quantity the kernel's writeback throttle watches.
func (c *bufferCache) dirtyBytes() int64 { return c.dirty + c.flushQueue + c.inFlight }
