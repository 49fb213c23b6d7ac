package resource

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// This file models machine memory as a first-class fourth resource, the
// regime the in-memory-analytics characterizations showed the CPU/disk/
// network trio cannot express: a per-machine memory-bandwidth ceiling shared
// max-min across the compute monotasks that are actually running, capacity
// accounting that turns pressure into spill-to-disk work, and deterministic
// seeded GC-pause events that stall the machine's cores. Everything is
// opt-in: a MemorySpec with zero bandwidth builds no Memory device at all,
// so existing configurations execute byte-identically.

// MemorySpec configures one machine's memory model. The zero value disables
// the model entirely (no Memory device is built).
type MemorySpec struct {
	// BandwidthBPS is the machine's memory-bandwidth ceiling in bytes/second.
	// Zero disables the memory model for the machine.
	BandwidthBPS float64
	// CapacityBytes bounds resident task buffers; bytes charged beyond it
	// spill to disk. Zero means unlimited (capacity pressure never spills).
	CapacityBytes int64
	// GCEveryBytes is the mean allocation volume between GC-pause events;
	// zero disables GC events. Actual gaps are drawn deterministically from
	// GCSeed, spread over [0.5, 1.5)× the mean.
	GCEveryBytes int64
	// GCPauseSec is the stop-the-world duration of each GC event.
	GCPauseSec float64
	// GCSeed seeds the gap sequence; the same seed replays the same GC
	// schedule bit-identically.
	GCSeed int64
}

// Enabled reports whether the spec builds a memory model.
func (s MemorySpec) Enabled() bool { return s.BandwidthBPS > 0 }

// MemStream is one in-service memory traffic stream (a compute monotask's
// data movement). Streams are pooled like server Jobs: once done fires the
// struct may be recycled, so a held pointer must not be reused afterwards.
type MemStream struct {
	remaining float64 // bytes left to move
	total     float64
	demand    float64 // per-stream rate cap in bytes/s; <= 0 means uncapped
	rate      float64 // current allocated rate
	done      func()
	seq       uint64
	index     int // position in Memory.streams, -1 when not in service
}

// Rate reports the stream's current allocated bandwidth in bytes/second.
func (st *MemStream) Rate() float64 { return st.rate }

// Remaining reports the bytes still to move.
func (st *MemStream) Remaining() float64 { return st.remaining }

// Memory is one machine's memory model: a fluid bandwidth server with
// per-stream demand caps, capacity accounting, and a seeded GC schedule.
//
// Bandwidth sharing is max-min fair under the caps (water-filling): every
// stream gets min(demand, level) where the water level is the largest rate
// the ceiling can grant uniformly. The level is computed from the sorted
// demand multiset, so the allocation — including its exact float values — is
// a function of which streams are open, never of the order they were opened
// in (the property the memory property tests pin).
type Memory struct {
	spec  MemorySpec
	eng   *sim.Engine
	speed float64 // dynamic degradation factor, 1 = nominal

	streams    []*MemStream
	nextSeq    uint64
	lastUpdate sim.Time
	completion sim.EventRef
	completeFn func()
	finished   []*MemStream // reusable scratch for complete()
	pool       []*MemStream
	scratch    []float64 // reusable demand-sort scratch

	// Util tracks allocated bandwidth / ceiling over time, in [0, 1].
	Util Tracker
	// TrafficCum is the cumulative byte counter (bytes charged at stream
	// submission), the OS-counter view metrics.Measure reads.
	TrafficCum Tracker
	bytesMoved int64

	inUse int64
	peak  int64

	allocCum int64
	nextGC   int64
	gcCount  int
	gcRNG    *rand.Rand
	onGC     func(pause sim.Duration)
}

// NewMemory builds the memory model for one machine. The spec must have a
// positive bandwidth ceiling — callers gate on MemorySpec.Enabled.
func NewMemory(eng *sim.Engine, spec MemorySpec) *Memory {
	if spec.BandwidthBPS <= 0 {
		panic("resource: memory needs positive bandwidth (gate on MemorySpec.Enabled)")
	}
	if spec.CapacityBytes < 0 || spec.GCEveryBytes < 0 || spec.GCPauseSec < 0 {
		panic("resource: negative memory spec knob")
	}
	m := &Memory{spec: spec, eng: eng, speed: 1}
	m.completeFn = m.complete
	if spec.GCEveryBytes > 0 {
		m.gcRNG = rand.New(rand.NewSource(spec.GCSeed))
		m.nextGC = m.gcGap()
	}
	return m
}

// Spec returns the configuration the model was built with.
func (m *Memory) Spec() MemorySpec { return m.spec }

// ceiling is the effective bandwidth after dynamic degradation.
func (m *Memory) ceiling() float64 { return m.spec.BandwidthBPS * m.speed }

// OnGC installs the GC-pause sink (the machine wires it to CPU.Pause).
func (m *Memory) OnGC(fn func(pause sim.Duration)) { m.onGC = fn }

// GCCount reports how many GC-pause events have fired.
func (m *Memory) GCCount() int { return m.gcCount }

// gcGap draws the next inter-GC allocation gap: GCEveryBytes spread over
// [0.5, 1.5)× so the schedule is irregular but seeded.
func (m *Memory) gcGap() int64 {
	return int64(float64(m.spec.GCEveryBytes) * (0.5 + m.gcRNG.Float64()))
}

// Charge accounts bytes of task buffer against capacity: held is the portion
// that fits, spill the overflow the caller must stage to disk. With zero
// CapacityBytes everything is held. Charged bytes also advance the GC
// allocation clock — spilled bytes churn the heap too — and may fire GC-pause
// events through the OnGC sink.
func (m *Memory) Charge(bytes int64) (held, spill int64) {
	if bytes < 0 {
		panic("resource: negative memory charge")
	}
	held = bytes
	if capacity := m.spec.CapacityBytes; capacity > 0 {
		if free := capacity - m.inUse; free < held {
			if free < 0 {
				free = 0
			}
			held = free
		}
	}
	spill = bytes - held
	m.inUse += held
	if m.inUse > m.peak {
		m.peak = m.inUse
	}
	if m.spec.GCEveryBytes > 0 && bytes > 0 {
		m.allocCum += bytes
		for m.allocCum >= m.nextGC {
			m.nextGC += m.gcGap()
			m.gcCount++
			if m.onGC != nil && m.spec.GCPauseSec > 0 {
				m.onGC(sim.Duration(m.spec.GCPauseSec))
			}
		}
	}
	return held, spill
}

// Release returns held bytes from a completed task.
func (m *Memory) Release(bytes int64) {
	m.inUse -= bytes
	if m.inUse < 0 {
		panic("resource: memory released twice")
	}
}

// InUse reports resident charged bytes.
func (m *Memory) InUse() int64 { return m.inUse }

// Peak reports the high-water resident bytes.
func (m *Memory) Peak() int64 { return m.peak }

// newStream takes a stream struct from the free list and stamps it.
func (m *Memory) newStream(bytes float64, demand float64, done func()) *MemStream {
	m.nextSeq++
	var st *MemStream
	if n := len(m.pool); n > 0 {
		st = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
	} else {
		st = &MemStream{}
	}
	st.remaining = bytes
	st.total = bytes
	st.demand = demand
	st.rate = 0
	st.done = done
	st.seq = m.nextSeq
	st.index = -1
	return st
}

func (m *Memory) recycle(st *MemStream) {
	st.done = nil
	m.pool = append(m.pool, st)
}

// Stream starts moving bytes through the memory system at up to demandBPS
// (<= 0 for uncapped); done fires via the engine when the bytes have moved.
// Zero-byte streams complete on the next event dispatch.
func (m *Memory) Stream(bytes int64, demandBPS float64, done func()) *MemStream {
	m.bytesMoved += bytes
	m.TrafficCum.Set(m.eng.Now(), float64(m.bytesMoved))
	m.advance()
	if bytes <= 0 {
		m.nextSeq++
		st := &MemStream{demand: demandBPS, done: done, seq: m.nextSeq, index: -1}
		m.eng.After(0, done)
		return st
	}
	st := m.newStream(float64(bytes), demandBPS, done)
	st.index = len(m.streams)
	m.streams = append(m.streams, st)
	m.rerate()
	m.reschedule()
	return st
}

// Cancel abandons an in-flight stream. Canceling a finished stream is a no-op.
func (m *Memory) Cancel(st *MemStream) {
	if !m.inService(st) {
		return
	}
	m.advance()
	m.unlink(st)
	m.rerate()
	m.reschedule()
	m.recycle(st)
}

func (m *Memory) inService(st *MemStream) bool {
	return st.index >= 0 && st.index < len(m.streams) && m.streams[st.index] == st
}

func (m *Memory) unlink(st *MemStream) {
	i, n := st.index, len(m.streams)-1
	if i != n {
		m.streams[i] = m.streams[n]
		m.streams[i].index = i
	}
	m.streams[n] = nil
	m.streams = m.streams[:n]
	st.index = -1
}

// Streams reports the number of streams in service.
func (m *Memory) Streams() int { return len(m.streams) }

// BytesMoved reports cumulative bytes streamed through memory.
func (m *Memory) BytesMoved() int64 { return m.bytesMoved }

// SetSpeedFactor rescales the bandwidth ceiling to factor times its
// configured value from the current virtual time onward (1 restores it) —
// the same dynamic degradation knob the CPU and disks expose.
func (m *Memory) SetSpeedFactor(factor float64) {
	if factor <= 0 {
		panic("resource: memory speed factor must be positive")
	}
	m.advance()
	m.speed = factor
	m.rerate()
	m.reschedule()
}

// advance drains every stream at its current rate since the last update.
// Must be called before any membership or rate change.
func (m *Memory) advance() {
	now := m.eng.Now()
	dt := float64(now - m.lastUpdate)
	m.lastUpdate = now
	if dt <= 0 || len(m.streams) == 0 {
		return
	}
	for _, st := range m.streams {
		st.remaining -= st.rate * dt
		// Same relative residue clamp as the fluid server: byte-scale work
		// units leave absolute epsilons rescheduling forever.
		if st.remaining < 1e-9*st.total+1e-12 {
			st.remaining = 0
		}
	}
}

// rerate recomputes the max-min allocation under the demand caps.
//
// Water-filling over the sorted demand multiset: satisfy the smallest capped
// demands while they fit under an equal split of what remains; the first
// demand that does not fit fixes the water level, and every unsatisfied
// stream (capped or uncapped) gets exactly that level. Sorting by demand
// value — never by stream identity or insertion order — makes the float
// arithmetic, and therefore the exact allocation, insertion-order
// independent.
func (m *Memory) rerate() {
	n := len(m.streams)
	now := m.eng.Now()
	if n == 0 {
		m.Util.Set(now, 0)
		return
	}
	capBW := m.ceiling()
	scratch := m.scratch[:0]
	for _, st := range m.streams {
		if st.demand > 0 {
			scratch = append(scratch, st.demand)
		}
	}
	m.scratch = scratch
	sort.Float64s(scratch)

	rem := capBW
	cnt := n
	level := math.Inf(1)
	for _, d := range scratch {
		share := rem / float64(cnt)
		if d <= share {
			rem -= d
			cnt--
			continue
		}
		level = share
		break
	}
	if math.IsInf(level, 1) {
		// Every capped demand fit under its share. cnt now counts the
		// uncapped streams; they split the residue. If there are none the
		// level stays infinite and each stream runs at its own demand.
		if uncapped := n - len(scratch); uncapped > 0 {
			level = rem / float64(uncapped)
		}
	}

	var total float64
	for _, st := range m.streams {
		r := level
		if st.demand > 0 && st.demand < r {
			r = st.demand
		}
		st.rate = r
		total += r
	}
	if capBW > 0 {
		u := total / capBW
		if u > 1 {
			u = 1
		}
		m.Util.Set(now, u)
	}
}

// reschedule arms the next completion: the stream whose remaining/rate is
// smallest. Rates differ per stream (caps), so the minimum is over times,
// not remaining work.
func (m *Memory) reschedule() {
	m.eng.Cancel(m.completion)
	m.completion = sim.EventRef{}
	if len(m.streams) == 0 {
		return
	}
	minT := math.MaxFloat64
	for _, st := range m.streams {
		if st.rate <= 0 {
			panic("resource: memory stream with zero rate")
		}
		if t := st.remaining / st.rate; t < minT {
			minT = t
		}
	}
	m.completion = m.eng.After(sim.Duration(minT), m.completeFn)
}

// complete retires every drained stream, reallocates, and fires callbacks in
// admission order — the same deterministic completion discipline as the
// fluid server.
func (m *Memory) complete() {
	m.completion = sim.EventRef{}
	m.advance()
	finished := m.finished[:0]
	for _, st := range m.streams {
		if st.remaining == 0 {
			finished = append(finished, st)
		}
	}
	if len(finished) == 0 && len(m.streams) > 0 {
		// Float residue left the due stream fractionally short; retire the
		// minimum-time one or the completion event respins forever.
		var min *MemStream
		var minT float64
		for _, st := range m.streams {
			t := st.remaining / st.rate
			if min == nil || t < minT || (t == minT && st.seq < min.seq) {
				min, minT = st, t
			}
		}
		min.remaining = 0
		finished = append(finished, min)
	}
	for _, st := range finished {
		m.unlink(st)
	}
	m.rerate()
	m.reschedule()
	for i := 1; i < len(finished); i++ {
		for k := i; k > 0 && finished[k].seq < finished[k-1].seq; k-- {
			finished[k], finished[k-1] = finished[k-1], finished[k]
		}
	}
	for _, st := range finished {
		st.done()
	}
	for i, st := range finished {
		m.recycle(st)
		finished[i] = nil
	}
	m.finished = finished[:0]
}
