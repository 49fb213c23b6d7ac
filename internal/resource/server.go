package resource

import (
	"math"

	"repro/internal/sim"
)

// AggregateFunc maps the number of jobs in service — split into two classes,
// readers and writers, so devices can price mixed access differently — to
// the server's aggregate service rate (work units per second). The rate is
// split equally among all jobs. Examples:
//
//   - CPU with n cores: aggregate(k) = min(k, n) core-seconds/second, so each
//     job runs at rate min(1, n/k) — classic processor sharing (all jobs are
//     class 0; the writer count is always zero).
//   - HDD: concurrent streams cost seeks, collapsing total throughput, and a
//     read/write mix thrashes the head harder than parallel readers.
//   - SSD: throughput rises with outstanding operations until the device
//     saturates.
type AggregateFunc func(readers, writers int) float64

// Job is one unit of in-service work on a fluid server.
//
// Job structs are pooled: once a job completes (its done callback has fired)
// the struct is recycled for a later Add on the same server, so a *Job held
// past completion must not be passed to Remove. Removing an in-flight job
// remains safe, and Remove of a just-completed (not yet reused) job is a
// no-op.
type Job struct {
	remaining float64 // work units left
	total     float64
	class     int // 0 = reader, 1 = writer
	done      func()
	started   sim.Time
	seq       uint64
	index     int // position in server.jobs, -1 when not in service
}

// Remaining reports the work still owed to the job.
func (j *Job) Remaining() float64 { return j.remaining }

// server is the fluid-flow core shared by the CPU and disk models: a set of
// jobs drains at aggregate(k)/k each; membership changes trigger a catch-up
// of remaining work and a reschedule of the next completion event.
//
// The server is allocation-lean by design: the in-service set is a slice
// (swap-removed via Job.index), retired Job structs are recycled through a
// free list, and the completion callback passed to the engine is bound once
// at construction instead of per reschedule.
type server struct {
	eng        *sim.Engine
	aggregate  AggregateFunc
	speed      float64 // dynamic degradation factor, 1 = nominal
	jobs       []*Job
	classCount [2]int
	nextSeq    uint64
	lastUpdate sim.Time
	completion sim.EventRef
	completeFn func() // s.complete, bound once so reschedule never allocates
	// paused stops all progress until pauseEnd — the stop-the-world knob GC
	// events use. In-service jobs keep their remaining work; advance drains
	// nothing and reschedule arms no completion while paused.
	paused   bool
	pauseEnd sim.Time
	resumeEv sim.EventRef
	resumeFn func() // s.resume, bound once
	finished []*Job // reusable scratch for complete()
	pool     []*Job // recycled Job structs
	// onCount is invoked whenever the in-service job count changes, with the
	// new count; devices use it to drive their utilization trackers.
	onCount func(k int)
}

func newServer(eng *sim.Engine, aggregate AggregateFunc, onCount func(k int)) *server {
	s := &server{
		eng:       eng,
		aggregate: aggregate,
		speed:     1,
		onCount:   onCount,
	}
	s.completeFn = s.complete
	s.resumeFn = s.resume
	return s
}

// pause halts all service for d of virtual time from now — a stop-the-world
// event (GC). In-service jobs are caught up at the pre-pause rate first, so
// the stall is exact. Overlapping pauses coalesce: a new pause extends the
// stall only if it ends later than the one in progress.
func (s *server) pause(d sim.Duration) {
	if d <= 0 {
		return
	}
	s.advance()
	end := s.eng.Now() + sim.Time(d)
	if s.paused {
		if end <= s.pauseEnd {
			return
		}
		s.eng.Cancel(s.resumeEv)
	} else {
		s.paused = true
		s.eng.Cancel(s.completion)
		s.completion = sim.EventRef{}
	}
	s.pauseEnd = end
	s.resumeEv = s.eng.After(sim.Duration(end-s.eng.Now()), s.resumeFn)
}

// resume ends a pause: time spent stalled drained nothing (advance sees a
// zero rate while paused), so jobs simply pick up where they stopped.
func (s *server) resume() {
	s.advance()
	s.paused = false
	s.resumeEv = sim.EventRef{}
	s.reschedule()
}

// setSpeed rescales the server's aggregate rate by factor (relative to its
// configured AggregateFunc) from the current virtual time onward. In-service
// jobs are caught up at the old rate first, so a mid-job change is exact —
// the dynamic-degradation knob fault injection uses.
func (s *server) setSpeed(factor float64) {
	if factor <= 0 {
		panic("resource: speed factor must be positive")
	}
	s.advance()
	s.speed = factor
	s.reschedule()
}

// newJob takes a Job struct from the free list (or the heap) and stamps it.
func (s *server) newJob(work float64, class int, done func()) *Job {
	s.nextSeq++
	var j *Job
	if n := len(s.pool); n > 0 {
		j = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else {
		j = &Job{}
	}
	j.remaining = work
	j.total = work
	j.class = class
	j.done = done
	j.started = s.eng.Now()
	j.seq = s.nextSeq
	j.index = -1
	return j
}

// recycle retires a completed job's struct to the free list.
func (s *server) recycle(j *Job) {
	j.done = nil
	s.pool = append(s.pool, j)
}

// Add places work units of demand in service as a class-0 (reader) job;
// done fires (via the engine) when the job completes. Zero-work jobs
// complete on the next event dispatch rather than synchronously, so callers
// never re-enter themselves.
func (s *server) Add(work float64, done func()) *Job {
	return s.AddClass(work, 0, done)
}

// AddClass is Add with an explicit job class (0 = reader, 1 = writer).
func (s *server) AddClass(work float64, class int, done func()) *Job {
	s.advance()
	if work <= 0 {
		// Zero-work jobs never enter service, so the caller-held struct is
		// never recycled (a pool slot would alias a future job).
		s.nextSeq++
		j := &Job{class: class, done: done, started: s.eng.Now(), seq: s.nextSeq, index: -1}
		s.eng.After(0, done)
		return j
	}
	j := s.newJob(work, class, done)
	j.index = len(s.jobs)
	s.jobs = append(s.jobs, j)
	s.classCount[class]++
	s.notifyCount()
	s.reschedule()
	return j
}

// inService reports whether j is currently in the service set.
func (s *server) inService(j *Job) bool {
	return j.index >= 0 && j.index < len(s.jobs) && s.jobs[j.index] == j
}

// Remove cancels a job before completion (e.g. a speculative fetch that is
// no longer needed). Removing a finished job is a no-op.
func (s *server) Remove(j *Job) {
	if !s.inService(j) {
		return
	}
	s.advance()
	s.unlink(j)
	s.classCount[j.class]--
	s.notifyCount()
	s.reschedule()
	s.recycle(j)
}

// unlink swap-removes j from the in-service slice.
func (s *server) unlink(j *Job) {
	i, n := j.index, len(s.jobs)-1
	if i != n {
		s.jobs[i] = s.jobs[n]
		s.jobs[i].index = i
	}
	s.jobs[n] = nil
	s.jobs = s.jobs[:n]
	j.index = -1
}

// Count reports the number of jobs in service.
func (s *server) Count() int { return len(s.jobs) }

// perJobRate returns the current drain rate of each job.
func (s *server) perJobRate() float64 {
	k := len(s.jobs)
	if k == 0 || s.paused {
		return 0
	}
	return s.speed * s.aggregate(s.classCount[0], s.classCount[1]) / float64(k)
}

// advance deducts the work completed since the last update from every
// in-service job. It must be called before any membership change.
func (s *server) advance() {
	now := s.eng.Now()
	dt := float64(now - s.lastUpdate)
	s.lastUpdate = now
	if dt <= 0 || len(s.jobs) == 0 {
		return
	}
	drained := s.perJobRate() * dt
	for _, j := range s.jobs {
		j.remaining -= drained
		// Clamp float residue to zero. The tolerance must be relative to the
		// job's size: with byte-scale work units (10^8+), absolute epsilons
		// leave residues that reschedule zero-length completion events
		// forever once the clock is large enough that now+tiny == now.
		if j.remaining < 1e-9*j.total+1e-12 {
			j.remaining = 0
		}
	}
}

// reschedule cancels the pending completion event and schedules one for the
// job that will finish first (all jobs drain at the same rate, so that is
// the one with the least remaining work).
func (s *server) reschedule() {
	s.eng.Cancel(s.completion)
	s.completion = sim.EventRef{}
	if len(s.jobs) == 0 || s.paused {
		// While paused no job makes progress; resume() reschedules.
		return
	}
	minRemaining := math.MaxFloat64
	for _, j := range s.jobs {
		if j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	rate := s.perJobRate()
	if rate <= 0 {
		panic("resource: server with jobs but zero aggregate rate")
	}
	s.completion = s.eng.After(sim.Duration(minRemaining/rate), s.completeFn)
}

// complete retires every job whose work has drained to zero, then
// reschedules. Multiple jobs can tie (identical demands started together).
func (s *server) complete() {
	s.completion = sim.EventRef{}
	s.advance()
	finished := s.finished[:0]
	for _, j := range s.jobs {
		if j.remaining == 0 {
			finished = append(finished, j)
		}
	}
	if len(finished) == 0 && len(s.jobs) > 0 {
		// The completion event fired but float residue left every job
		// fractionally short. The due job is the minimum-remaining one;
		// retire it, or the server reschedules a drain whose duration can
		// underflow the clock's resolution and spin forever.
		var min *Job
		for _, j := range s.jobs {
			if min == nil || j.remaining < min.remaining ||
				(j.remaining == min.remaining && j.seq < min.seq) {
				min = j
			}
		}
		min.remaining = 0
		finished = append(finished, min)
	}
	for _, j := range finished {
		s.unlink(j)
		s.classCount[j.class]--
	}
	s.notifyCount()
	s.reschedule()
	// Run callbacks after internal state is consistent: a done callback may
	// immediately Add follow-on work to this server. Deterministic order:
	// admission order (seq), since swap-removal scrambles the service slice.
	for i := 1; i < len(finished); i++ {
		for k := i; k > 0 && finished[k].seq < finished[k-1].seq; k-- {
			finished[k], finished[k-1] = finished[k-1], finished[k]
		}
	}
	for _, j := range finished {
		j.done()
	}
	for i, j := range finished {
		s.recycle(j)
		finished[i] = nil
	}
	s.finished = finished[:0]
}

func (s *server) notifyCount() {
	if s.onCount != nil {
		s.onCount(len(s.jobs))
	}
}
