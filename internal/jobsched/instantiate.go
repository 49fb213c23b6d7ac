package jobsched

import (
	"repro/internal/sim"
	"repro/internal/task"
)

// instantiate builds h's stage states from its validated spec, using slab
// allocation: one backing array per bookkeeping kind for the whole job,
// carved into full-capacity per-stage windows, instead of several
// allocations per stage. Growth past a window (a retried task re-entering
// pending, a speculative second attempt) falls back to a normal append-copy,
// so the windows are a fast path, not a limit. The bool slab also holds the
// queued flags, and the int slab also holds the failure counts and every
// stage's children.
func (d *Driver) instantiate(h *JobHandle) {
	spec := h.Spec
	n := len(spec.Stages)
	stageSlab := make([]stageState, n)
	metricSlab := make([]task.StageMetrics, n)
	h.stages = make([]*stageState, n)
	h.Metrics.Stages = make([]*task.StageMetrics, n)

	total, edges := 0, 0
	for _, ss := range spec.Stages {
		total += ss.NumTasks
		edges += len(ss.ParentIDs)
	}
	intSlab := make([]int, 2*total+edges)
	pendingSlab, failSlab, childSlab := intSlab[:total], intSlab[total:2*total], intSlab[2*total:]
	// Count each stage's children in the length of its children slice
	// (childSlab holds every edge, so no count outgrows it); the loop below
	// carves each stage's window at that length and fills it.
	for _, ss := range spec.Stages {
		for _, pid := range ss.ParentIDs {
			p := &stageSlab[pid]
			p.children = childSlab[:len(p.children)+1]
		}
	}
	boolSlab := make([]bool, 2*total)
	doneSlab, queuedSlab := boolSlab[:total], boolSlab[total:]
	durSlab := make([]float64, total)
	tmSlab := make([]*task.TaskMetrics, total)
	attSlots := make([][]*attempt, total)
	// attBacking gives every task's attempt list a cap-1 window, so the
	// common case — exactly one attempt — appends without allocating.
	attBacking := make([]*attempt, total)

	off, childOff := 0, 0
	for i, ss := range spec.Stages {
		nt := ss.NumTasks
		end := off + nt
		m := &metricSlab[i]
		m.Spec = ss
		m.Tasks = tmSlab[off:end:end]
		st := &stageSlab[i]
		st.job = h
		st.spec = ss
		st.metrics = m
		st.waitingOn = len(ss.ParentIDs)
		// Parents precede their children (Validate), so every parent's
		// window is carved by now; visiting stages in order appends each
		// child ascending, once per listing.
		nc := len(st.children)
		st.children = childSlab[childOff : childOff : childOff+nc]
		childOff += nc
		for _, pid := range ss.ParentIDs {
			p := &stageSlab[pid]
			p.children = append(p.children, i)
		}
		st.pending = pendingSlab[off:end:end]
		st.queued = queuedSlab[off:end:end]
		for ti := 0; ti < nt; ti++ {
			st.pending[ti] = ti
			st.queued[ti] = true
		}
		st.doneTasks = doneSlab[off:end:end]
		st.failures = failSlab[off:end:end]
		st.durations = durSlab[off:off:end]
		st.attempts = attSlots[off:end:end]
		for ti := 0; ti < nt; ti++ {
			st.attempts[ti] = attBacking[off+ti : off+ti : off+ti+1]
		}
		h.stages[i] = st
		h.Metrics.Stages[i] = m
		off = end
	}
}

// attemptSlabChunk sizes the driver's attempt slab refills. Attempts are
// slab-chunked, not free-listed: a retired attempt can still be read
// arbitrarily late by its zombie completion callback or fetch timeout, so
// individual structs are never reused within a run.
const attemptSlabChunk = 128

// newAttempt carves one attempt from the driver's slab.
func (d *Driver) newAttempt(machine int, start sim.Time) *attempt {
	if len(d.attemptSlab) == 0 {
		d.attemptSlab = make([]attempt, attemptSlabChunk)
	}
	a := &d.attemptSlab[0]
	d.attemptSlab = d.attemptSlab[1:]
	a.machine, a.start = machine, start
	return a
}

// newTask carves one Task struct from the driver's slab. Tasks, like
// attempts, are handed to executors whose references outlive the launch, so
// they are amortized (one allocation per chunk), never recycled.
func (d *Driver) newTask() *task.Task {
	if len(d.taskSlab) == 0 {
		d.taskSlab = make([]task.Task, attemptSlabChunk)
	}
	t := &d.taskSlab[0]
	d.taskSlab = d.taskSlab[1:]
	return t
}

// completionOp carries one launched attempt's completion context, with the
// callback method value bound once at construction so every Launch does not
// allocate a fresh closure. An executor fires the callback exactly once, so
// the op recycles itself on entry after extracting its fields.
type completionOp struct {
	d   *Driver
	st  *stageState
	ti  int
	w   int
	att *attempt
	fn  func(*task.TaskMetrics) // op.run, bound once per struct
}

func (d *Driver) takeCompletion(st *stageState, ti, w int, att *attempt) *completionOp {
	var op *completionOp
	if n := len(d.completionPool); n > 0 {
		op = d.completionPool[n-1]
		d.completionPool[n-1] = nil
		d.completionPool = d.completionPool[:n-1]
	} else {
		op = &completionOp{d: d}
		op.fn = op.run
	}
	op.st, op.ti, op.w, op.att = st, ti, w, att
	return op
}

func (op *completionOp) run(m *task.TaskMetrics) {
	d, st, ti, w, att := op.d, op.st, op.ti, op.w, op.att
	op.st, op.att = nil, nil
	d.completionPool = append(d.completionPool, op)
	d.onAttemptDone(st, ti, w, att, m)
}

// timeoutOp is the pooled analogue for armFetchTimeout's timer callback.
type timeoutOp struct {
	d   *Driver
	st  *stageState
	ti  int
	w   int
	att *attempt
	fn  func() // op.run, bound once per struct
}

func (d *Driver) takeTimeout(st *stageState, ti, w int, att *attempt) *timeoutOp {
	var op *timeoutOp
	if n := len(d.timeoutPool); n > 0 {
		op = d.timeoutPool[n-1]
		d.timeoutPool[n-1] = nil
		d.timeoutPool = d.timeoutPool[:n-1]
	} else {
		op = &timeoutOp{d: d}
		op.fn = op.run
	}
	op.st, op.ti, op.w, op.att = st, ti, w, att
	return op
}

func (op *timeoutOp) run() {
	d, st, ti, w, att := op.d, op.st, op.ti, op.w, op.att
	op.st, op.att = nil, nil
	d.timeoutPool = append(d.timeoutPool, op)
	d.onFetchTimeout(st, ti, w, att)
}
