// Package sim provides a deterministic discrete-event simulation engine.
//
// All performance experiments in this repository run in virtual time: device
// models (CPU, disk, network) schedule completion events on an Engine, and
// the Engine advances a virtual clock from event to event. Determinism is
// guaranteed by breaking ties on (time, sequence number), so a given workload
// and cluster configuration always produces bit-identical results.
//
// The engine is the innermost loop of every experiment, so it is built to
// stay off the allocator: the pending queue is a hand-rolled indexed binary
// heap (no container/heap interface boxing), and fired or cancelled Event
// structs are recycled through a free list. Recycling is safe because At and
// After hand out EventRef value handles that carry the struct's generation;
// a stale handle — one whose event already fired or was cancelled — is
// detected by the generation check and Cancel ignores it.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation. float64 seconds keeps device-model arithmetic (rates, shares)
// simple; nanosecond-scale rounding error is irrelevant at the tens-of-seconds
// scale the experiments measure.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Forever is a sentinel time later than any event the engine will execute.
const Forever Time = math.MaxFloat64

// Event is one scheduled callback's storage. Event structs are pooled: after
// an event fires or is cancelled its struct is recycled for a later At call,
// so holding a *Event across its firing is unsafe — that is why the engine
// hands out EventRef values instead.
type Event struct {
	at    Time
	seq   uint64
	index int // heap index, -1 once removed
	gen   uint32
	fn    func()
}

// EventRef is a handle to a scheduled event, returned by At and After so
// callers can cancel the event before it fires. The zero EventRef refers to
// nothing; cancelling it is a no-op. A ref whose event already fired (or was
// already cancelled) is stale, and stale refs are likewise safely ignored —
// the generation check distinguishes them from the struct's next tenant.
type EventRef struct {
	ev  *Event
	gen uint32
}

// Scheduled reports whether the referenced event is still pending.
func (r EventRef) Scheduled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.index >= 0
}

// Time reports when the referenced event will fire, or Forever if the ref is
// zero or stale.
func (r EventRef) Time() Time {
	if !r.Scheduled() {
		return Forever
	}
	return r.ev.at
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine. Engines are not safe for concurrent use: the simulation
// is single-threaded by design, which is what makes it deterministic.
type Engine struct {
	now     Time
	seq     uint64
	pending []*Event // indexed binary min-heap on (at, seq)
	free    []*Event // recycled Event structs
	running bool

	// Cooperative cancellation: Run polls abortCheck every abortEvery events
	// and stops early (recording abortErr) when it returns non-nil. The check
	// runs between events, never inside one, so a fired abort cannot perturb
	// event order — the events that did execute are exactly the prefix an
	// uninterrupted run would have executed.
	abortCheck func() error
	abortEvery int
	abortErr   error
}

// DefaultAbortInterval is how many events Run executes between abort-check
// polls when SetAbortCheck is given a non-positive interval. Small enough
// that a cancelled run stops within microseconds of real time, large enough
// that the poll is invisible next to the event dispatch itself.
const DefaultAbortInterval = 256

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a device-model bug, and silently clamping would
// mask it.
func (e *Engine) At(t Time, fn func()) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		// Grow the free list a block at a time: a fresh engine warms up with
		// one allocation per 64 events instead of one per event, which matters
		// because every sweep cell builds its own engine.
		block := make([]Event, 64)
		for i := 1; i < len(block); i++ {
			block[i].index = -1
			e.free = append(e.free, &block[i])
		}
		block[0].index = -1
		ev = &block[0]
	}
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.index = len(e.pending)
	e.pending = append(e.pending, ev)
	e.siftUp(ev.index)
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Duration, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event. Cancelling a zero or stale ref — one whose
// event already fired or was already cancelled — is a no-op, which lets
// device models cancel their provisional completion events unconditionally.
func (e *Engine) Cancel(r EventRef) {
	if !r.Scheduled() {
		return
	}
	ev := r.ev
	i := ev.index
	n := len(e.pending) - 1
	if i != n {
		e.pending[i] = e.pending[n]
		e.pending[i].index = i
	}
	e.pending[n] = nil
	e.pending = e.pending[:n]
	if i != n {
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	e.recycle(ev)
}

// recycle retires an event struct to the free list, bumping its generation so
// stale EventRefs can no longer reach it.
func (e *Engine) recycle(ev *Event) {
	ev.index = -1
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Len reports the number of pending events.
func (e *Engine) Len() int { return len(e.pending) }

// Step executes the single earliest pending event and returns true, or
// returns false if no events remain.
func (e *Engine) Step() bool {
	if len(e.pending) == 0 {
		return false
	}
	ev := e.pending[0]
	n := len(e.pending) - 1
	if n > 0 {
		e.pending[0] = e.pending[n]
		e.pending[0].index = 0
	}
	e.pending[n] = nil
	e.pending = e.pending[:n]
	if n > 1 {
		e.siftDown(0)
	}
	e.now = ev.at
	fn := ev.fn
	// Recycle before running the callback: the callback frequently schedules
	// the device's next completion, which can then reuse this struct.
	e.recycle(ev)
	fn()
	return true
}

// SetAbortCheck installs (or, with a nil check, removes) a cooperative
// cancellation hook: while Run drains the queue it calls check every `every`
// events (DefaultAbortInterval when every <= 0) and stops early when check
// returns a non-nil error, which is then available from AbortErr. The check
// runs between events — never mid-callback — so the executed prefix is
// byte-identical to the same prefix of an uninterrupted run, and a run that
// is never aborted is unaffected entirely. The polling itself allocates
// nothing; the check function should not either (a context poll or a clock
// comparison is the intended shape).
func (e *Engine) SetAbortCheck(every int, check func() error) {
	if every <= 0 {
		every = DefaultAbortInterval
	}
	e.abortCheck = check
	e.abortEvery = every
}

// AbortErr reports the error that stopped the last Run early, or nil if no
// abort has fired. While AbortErr is non-nil, Run returns immediately;
// ClearAbort re-arms the engine.
func (e *Engine) AbortErr() error { return e.abortErr }

// ClearAbort resets a fired abort so the engine can be driven again. The
// pending queue is untouched: a cleared engine resumes exactly where the
// abort paused it, which is what makes an aborted simulation resumable (and
// testable — resuming must reproduce the uninterrupted event sequence).
func (e *Engine) ClearAbort() { e.abortErr = nil }

// Run executes events until none remain, or — when an abort check is
// installed — until the check fails, leaving the remaining events pending
// and the reason on AbortErr.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	if e.abortCheck == nil {
		for e.Step() {
		}
		return
	}
	if e.abortErr != nil {
		return
	}
	// Check once before the first event so an already-fired source (a
	// pre-cancelled context, an expired deadline) aborts a run of any size.
	if err := e.abortCheck(); err != nil {
		e.abortErr = err
		return
	}
	budget := e.abortEvery
	for e.Step() {
		budget--
		if budget <= 0 {
			if err := e.abortCheck(); err != nil {
				e.abortErr = err
				return
			}
			budget = e.abortEvery
		}
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled later than t remain pending.
func (e *Engine) RunUntil(t Time) {
	for len(e.pending) > 0 && e.pending[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// less orders events by (time, seq) — the determinism tie-break.
func (e *Engine) less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap invariant upward from index i.
func (e *Engine) siftUp(i int) {
	h := e.pending
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

// siftDown restores the heap invariant downward from index i, reporting
// whether the element moved.
func (e *Engine) siftDown(i int) bool {
	h := e.pending
	n := len(h)
	ev := h[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && e.less(h[right], h[child]) {
			child = right
		}
		if !e.less(h[child], ev) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = ev
	ev.index = i
	return i != start
}
