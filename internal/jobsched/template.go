package jobsched

import (
	"strconv"

	"repro/internal/sim"
	"repro/internal/task"
)

// This file is the driver's execution-template cache: the control-plane work
// of instantiating a job — walking the stage DAG for dependency counts,
// children lists, and hasChildren flags, and sizing every per-task
// bookkeeping array — depends only on the job's *shape* (stage count, task
// counts, parent edges). Repeated submissions of same-shaped jobs (the
// multijob arrival stream, a steady-state service replaying one query) reuse
// a memoized jobTemplate instead of re-deriving all of it per submission,
// and instantiate their per-task arrays from a handful of slab allocations
// instead of several per stage.
//
// Safety: a template holds ONLY immutable shape data. Everything the
// resilience machinery perturbs at runtime — placement, machine death and
// exclusion, speculative and retried attempts, rolled-back stages — lives in
// the per-job stageState instances, which are always freshly instantiated.
// A cached template therefore never goes stale; the remaining hazard is a
// fingerprint collision mapping two differently-shaped specs to one
// template, which templateFor guards against by structurally re-validating
// every cache hit and bypassing the cache (fresh build) on mismatch.

// jobTemplate is the memoized shape of one job: DAG bookkeeping that Submit
// would otherwise recompute per submission.
type jobTemplate struct {
	numStages  int
	totalTasks int
	numTasks   []int   // per stage
	waitingOn  []int   // per stage: initial unfinished-parent count
	children   [][]int // per stage: stage IDs consuming its output, ascending
	// hasChildren: some stage reads this one's shuffle output, so map outputs
	// must register even for zero-byte producers.
	hasChildren []bool
}

// matches re-validates a cache hit structurally (the collision guard).
func (t *jobTemplate) matches(spec *task.JobSpec) bool {
	if t.numStages != len(spec.Stages) {
		return false
	}
	for i, ss := range spec.Stages {
		if t.numTasks[i] != ss.NumTasks || t.waitingOn[i] != len(ss.ParentIDs) {
			return false
		}
		for _, pid := range ss.ParentIDs {
			found := false
			for _, cid := range t.children[pid] {
				if cid == i {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// buildTemplate derives a job's template from its spec.
func buildTemplate(spec *task.JobSpec) *jobTemplate {
	n := len(spec.Stages)
	t := &jobTemplate{
		numStages:   n,
		numTasks:    make([]int, n),
		waitingOn:   make([]int, n),
		children:    make([][]int, n),
		hasChildren: make([]bool, n),
	}
	for i, ss := range spec.Stages {
		t.numTasks[i] = ss.NumTasks
		t.totalTasks += ss.NumTasks
		t.waitingOn[i] = len(ss.ParentIDs)
		for _, pid := range ss.ParentIDs {
			t.children[pid] = append(t.children[pid], i)
			t.hasChildren[pid] = true
		}
	}
	return t
}

// fingerprint serializes the spec's shape into the driver's scratch buffer.
// Only shape fields enter the key: stage count, per-stage task counts, and
// parent edges — exactly what buildTemplate reads.
func (d *Driver) fingerprint(spec *task.JobSpec) []byte {
	buf := d.fpScratch[:0]
	buf = strconv.AppendInt(buf, int64(len(spec.Stages)), 10)
	for _, ss := range spec.Stages {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(ss.NumTasks), 10)
		for _, pid := range ss.ParentIDs {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(pid), 10)
		}
	}
	d.fpScratch = buf
	return buf
}

// templateFor returns the job's template, from the cache when it holds one
// of the same shape. Cache hits are structurally re-validated; a mismatch
// (fingerprint collision) bypasses the cache with a fresh build rather than
// trusting a wrong shape.
func (d *Driver) templateFor(spec *task.JobSpec) *jobTemplate {
	fp := d.fingerprint(spec)
	if t, ok := d.templates[string(fp)]; ok {
		if t.matches(spec) {
			return t
		}
		return buildTemplate(spec)
	}
	t := buildTemplate(spec)
	if d.templates == nil {
		d.templates = make(map[string]*jobTemplate)
	}
	d.templates[string(fp)] = t
	return t
}

// instantiate builds h's stage states from the template using slab
// allocation: one backing array per bookkeeping kind for the whole job,
// carved into full-capacity per-stage windows, instead of several
// allocations per stage. Growth past a window (a retried task re-entering
// pending, a speculative second attempt) falls back to a normal append-copy,
// so the windows are a fast path, not a limit. The bool slab also holds the
// queued flags.
func (d *Driver) instantiate(h *JobHandle, tpl *jobTemplate) {
	spec := h.Spec
	n := tpl.numStages
	stageSlab := make([]stageState, n)
	metricSlab := make([]task.StageMetrics, n)
	h.stages = make([]*stageState, n)
	h.Metrics.Stages = make([]*task.StageMetrics, n)

	total := tpl.totalTasks
	pendingSlab := make([]int, total)
	boolSlab := make([]bool, 2*total)
	doneSlab, queuedSlab := boolSlab[:total], boolSlab[total:]
	failSlab := make([]int, total)
	durSlab := make([]float64, total)
	tmSlab := make([]*task.TaskMetrics, total)
	attSlots := make([][]*attempt, total)
	// attBacking gives every task's attempt list a cap-1 window, so the
	// common case — exactly one attempt — appends without allocating.
	attBacking := make([]*attempt, total)

	off := 0
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
		st.waitingOn = tpl.waitingOn[i]
		st.hasChildren = tpl.hasChildren[i]
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
