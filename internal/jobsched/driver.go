// Package jobsched is the driver: it walks a job's stage DAG, places
// multitasks on workers with locality preference, and keeps each worker
// loaded to its executor's declared concurrency.
//
// The driver is identical for Spark-style and monotasks execution (§3.4):
// the only difference it sees is MaxConcurrentTasks — slot count for the
// pipelined executor, cores + disk concurrency + network concurrency + 1
// for monotasks — which is exactly the paper's point about where concurrency
// control should live.
//
// Beyond placement, the driver owns the resilience policies real frameworks
// layer on the bulk-synchronous model (§2.1): bounded per-task retry budgets,
// per-machine failure counting with timed exclusion, machine crash and
// recovery, and fetch retry timeouts. A job either completes or aborts with
// a descriptive error on its JobHandle — the driver never panics on a
// failure path.
package jobsched

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/task"
)

// JobHandle tracks one submitted job.
type JobHandle struct {
	// Spec is the submitted job.
	Spec *task.JobSpec
	// Metrics accumulates the job's stage and task metrics as it runs.
	Metrics *task.JobMetrics

	// Pool is the pool the job runs in: SubmitOptions.Pool, or DefaultPool.
	Pool string
	// Priority is the job's SubmitOptions.Priority.
	Priority int
	// Deadline is the job's SubmitOptions.Deadline.
	Deadline sim.Time
	// Submitted is when the job entered its pool's admission queue.
	Submitted sim.Time
	// AdmittedAt is when the pool let the job run: equal to Submitted
	// unless the pool's concurrency limit made it wait.
	AdmittedAt sim.Time

	stages    []*stageState
	remaining int
	running   int // live attempts over all stages, kept by addRunning
	done      bool
	failed    bool
	err       error
	seq       int // global submission order, the dispatch tie-breaker
	pool      *poolState
	admitted  bool
	released  bool
	// base offsets this job's stage IDs in the shared shuffle tracker so
	// concurrent jobs' outputs cannot collide.
	base int
}

// Done reports whether every stage has completed successfully.
func (h *JobHandle) Done() bool { return h.done }

// Failed reports whether the job was aborted.
func (h *JobHandle) Failed() bool { return h.failed }

// Err returns the abort reason for a failed job, nil otherwise.
func (h *JobHandle) Err() error { return h.err }

// finished reports whether the job needs no further scheduling.
func (h *JobHandle) finished() bool { return h.done || h.failed }

// attempt is one execution of one task index (speculation and failure
// recovery can create several per index).
type attempt struct {
	machine int
	start   sim.Time
	// retired attempts no longer count: they lost a race, their machine
	// died, their fetch timed out, or their input was invalidated. Their
	// eventual completion callbacks are ignored.
	retired bool
}

type stageState struct {
	job       *JobHandle
	spec      *task.StageSpec
	metrics   *task.StageMetrics
	waitingOn int   // parent stages not yet complete
	pending   []int // task indices not yet launched, ascending
	running   int   // live attempts; change it only through addRunning
	completed int   // task indices with a winning attempt
	started   bool
	finished  bool // finishStage has run (may be rolled back by a failure)
	// children lists the stages that read this one's shuffle output,
	// ascending, once per listing in their ParentIDs; carved by instantiate.
	children []int

	attempts  [][]*attempt // per task index; slices carved by instantiate
	doneTasks []bool
	queued    []bool    // per task: it is in pending
	durations []float64 // completed-attempt durations, for speculation
	failures  []int     // failed attempts per task, against MaxTaskFailures

	// local is an input stage's locality index, built at the stage's first
	// pick; nil before that and for other stages.
	local *localIndex
}

// localIndex finds an input stage's lowest pending task with a replica on a
// machine. idx[off[m]:off[m+1]] lists, ascending, the tasks whose block has
// a replica on machine m, and cursor[m] is a position in that list before
// which no task is queued, so the first queued task at or after it is the
// lowest pending task local to m. A block's replicas are fixed when dfs
// creates its file (Create and CreateAtReplicated are the only places that
// append them), and a spec is built from files that already exist, so the
// lists never go stale; only the cursors move, forward in first and back in
// requeued.
type localIndex struct {
	off, idx, cursor []int
}

// newLocalIndex indexes blocks over machines 0..machines-1. A replica on a
// machine past the cluster is never local to a worker and takes no entry.
// Blocks are visited in task order, so every list comes out ascending.
func newLocalIndex(blocks []*dfs.Block, machines int) *localIndex {
	n := 0
	for _, b := range blocks {
		for _, r := range b.Replicas {
			if r.Machine < machines {
				n++
			}
		}
	}
	buf := make([]int, 2*machines+1+n)
	li := &localIndex{off: buf[:machines+1], cursor: buf[machines+1 : 2*machines+1], idx: buf[2*machines+1:]}
	for _, b := range blocks {
		for _, r := range b.Replicas {
			if r.Machine < machines {
				li.off[r.Machine+1]++
			}
		}
	}
	for m := 0; m < machines; m++ {
		li.off[m+1] += li.off[m]
	}
	for ti, b := range blocks {
		for _, r := range b.Replicas {
			if m := r.Machine; m < machines {
				li.idx[li.off[m]+li.cursor[m]] = ti
				li.cursor[m]++
			}
		}
	}
	clear(li.cursor)
	return li
}

// first returns the lowest queued task with a replica on machine w,
// stepping w's cursor past tasks that have left pending since.
func (li *localIndex) first(w int, queued []bool) (int, bool) {
	local := li.idx[li.off[w]:li.off[w+1]]
	c := li.cursor[w]
	for c < len(local) && !queued[local[c]] {
		c++
	}
	li.cursor[w] = c
	if c == len(local) {
		return 0, false
	}
	return local[c], true
}

// requeued moves the cursor of every machine holding one of replicas (task
// ti's block) back to ti if it had passed it, so first finds ti again.
func (li *localIndex) requeued(ti int, replicas []dfs.Location) {
	for _, r := range replicas {
		if m := r.Machine; m < len(li.cursor) {
			if k, _ := slices.BinarySearch(li.idx[li.off[m]:li.off[m+1]], ti); k < li.cursor[m] {
				li.cursor[m] = k
			}
		}
	}
}

func (s *stageState) runnable() bool {
	return s.waitingOn == 0 && len(s.pending) > 0
}

func (s *stageState) hasLiveAttempt(ti int) bool {
	for _, a := range s.attempts[ti] {
		if !a.retired {
			return true
		}
	}
	return false
}

// enqueue returns task ti to pending: it keeps pending ascending, marks ti
// queued, and tells the locality index, if built, that ti is back.
func (s *stageState) enqueue(ti int) {
	pos, _ := slices.BinarySearch(s.pending, ti)
	s.pending = slices.Insert(s.pending, pos, ti)
	s.queued[ti] = true
	if s.local != nil {
		s.local.requeued(ti, s.spec.InputBlocks[ti].Replicas)
	}
}

// Driver schedules any number of concurrent jobs over one set of executors.
// Jobs land in named scheduling pools (Config.Pools; a fair-share default
// pool exists always): each pool has an admission queue and an optional
// concurrency limit, and free slots are arbitrated between pools by weighted
// fair sharing, then within a pool by its policy (see pools.go). This is
// what lets the Fig. 16 attribution experiment — and its N-job multijob
// generalization — run many jobs side by side.
type Driver struct {
	cluster *cluster.Cluster
	fs      *dfs.FS
	tracker *shuffle.Tracker
	execs   []task.Executor
	free    []int
	dead    []bool
	cfg     Config
	faults  FaultInjector // set by SetFaultInjector; nil injects nothing

	// inflight counts launch callbacks not yet fired per machine —
	// including retired "zombie" attempts the executor is still simulating.
	// The invariant free[w] = MaxConcurrentTasks(w) − inflight[w] (for live,
	// non-drained machines) is what lets RecoverMachine re-register exactly
	// the capacity the zombies are not holding.
	inflight []int

	// Exclusion (Spark's blacklisting): a machine accumulating failures is
	// barred from new assignments until its backoff expires.
	excluded        []bool
	excludeUntil    []sim.Time
	excludeCount    []int // times excluded, for exponential backoff
	machineFailures []int // failures since last reset

	jobs       []*JobHandle
	pools      []*poolState
	poolByName map[string]*poolState
	nextBase   int

	// Hot-path slabs, pools and scratch (see instantiate.go). All
	// single-threaded, like the engine they serve.
	attemptSlab    []attempt
	taskSlab       []task.Task
	completionPool []*completionOp
	timeoutPool    []*timeoutOp
	parentScratch  []int
	orderScratch   []*poolState
	deficitScratch []float64
}

// New builds a driver over one executor per cluster machine, in machine
// order, with default policies.
func New(c *cluster.Cluster, fs *dfs.FS, execs []task.Executor) (*Driver, error) {
	return NewWithConfig(c, fs, execs, Config{})
}

// NewWithConfig is New with explicit driver policies.
func NewWithConfig(c *cluster.Cluster, fs *dfs.FS, execs []task.Executor, cfg Config) (*Driver, error) {
	if len(execs) != c.Size() {
		return nil, fmt.Errorf("jobsched: %d executors for %d machines", len(execs), c.Size())
	}
	d := &Driver{cluster: c, fs: fs, tracker: shuffle.NewTracker(), execs: execs, cfg: cfg.withDefaults()}
	for i, e := range execs {
		if e.MachineID() != i {
			return nil, fmt.Errorf("jobsched: executor %d reports machine %d", i, e.MachineID())
		}
		d.free = append(d.free, e.MaxConcurrentTasks())
	}
	n := len(execs)
	d.dead = make([]bool, n)
	d.inflight = make([]int, n)
	d.excluded = make([]bool, n)
	d.excludeUntil = make([]sim.Time, n)
	d.excludeCount = make([]int, n)
	d.machineFailures = make([]int, n)
	if err := d.initPools(); err != nil {
		return nil, err
	}
	return d, nil
}

// available reports whether machine w may receive new tasks.
func (d *Driver) available(w int) bool { return !d.dead[w] && !d.excluded[w] }

// Submit queues a job in the default pool; its first stages begin at the
// next scheduling pass. Call Run (or drive the cluster engine) afterwards.
func (d *Driver) Submit(spec *task.JobSpec) (*JobHandle, error) {
	return d.SubmitWith(spec, SubmitOptions{})
}

// SubmitWith queues a job with explicit pool/priority/deadline tags. The job
// enters its pool's admission queue immediately; it starts running once the
// pool has admission capacity. Submitting from inside a running simulation
// (an engine callback at a job's arrival time) is how open-loop workloads
// model jobs arriving over time.
func (d *Driver) SubmitWith(spec *task.JobSpec, opts SubmitOptions) (*JobHandle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Deadline < 0 {
		return nil, fmt.Errorf("jobsched: job %q has negative deadline %v (the dispatch window is inverted)", spec.Name, opts.Deadline)
	}
	poolName := opts.Pool
	if poolName == "" {
		poolName = DefaultPool
	}
	pool, ok := d.poolByName[poolName]
	if !ok {
		return nil, fmt.Errorf("jobsched: job %q names undeclared pool %q", spec.Name, poolName)
	}
	now := d.cluster.Engine.Now()
	h := &JobHandle{
		Spec:      spec,
		Metrics:   &task.JobMetrics{Name: spec.Name, Start: now},
		Pool:      poolName,
		Priority:  opts.Priority,
		Deadline:  opts.Deadline,
		Submitted: now,
		seq:       len(d.jobs),
		pool:      pool,
		remaining: len(spec.Stages),
		base:      d.nextBase,
	}
	d.nextBase += len(spec.Stages)
	d.instantiate(h)
	d.jobs = append(d.jobs, h)
	pool.enqueue(h)
	d.admitFrom(pool)
	return h, nil
}

// Run drives the simulation until all submitted jobs finish and returns
// their metrics in submission order. Jobs that aborted (retry budget
// exhausted, unrecoverable data loss) or stalled carry their reason on
// JobHandle.Err; Run never panics on a failure path.
func (d *Driver) Run() []*task.JobMetrics {
	for {
		d.cluster.Engine.Run()
		if d.cluster.Engine.AbortErr() != nil {
			// The engine's abort check fired (deadline, cancelled context):
			// stop scheduling. Unfinished jobs are left as-is — the caller
			// decides whether to fail them (run.JobsContext does, via
			// AbortAll) or to clear the abort and resume.
			break
		}
		// The engine drained. Any unfinished job stalled: every machine that
		// could host its remaining tasks is gone, or the DAG deadlocked.
		// Abort one and re-drain — the abort can admit a queued successor
		// from the stalled job's pool, which schedules fresh events.
		var stalled *JobHandle
		for _, h := range d.jobs {
			if !h.done && !h.failed {
				stalled = h
				break
			}
		}
		if stalled == nil {
			break
		}
		d.abortJob(stalled, fmt.Errorf("jobsched: job %q stalled with %d stages incomplete (all capable machines failed, or the task DAG deadlocked)", stalled.Spec.Name, stalled.remaining))
	}
	out := make([]*task.JobMetrics, 0, len(d.jobs))
	for _, h := range d.jobs {
		out = append(out, h.Metrics)
	}
	return out
}

// Wait runs the simulation to completion and returns the first submitted
// job's abort reason, nil if every job completed. Per-job outcomes remain
// on each JobHandle (Done / Err).
func (d *Driver) Wait() error {
	d.Run()
	for _, h := range d.jobs {
		if h.err != nil {
			return h.err
		}
	}
	return nil
}

// schedule fills free slots one task per worker per pass (round robin), so
// a stage smaller than the cluster's total concurrency still spreads across
// machines instead of piling onto the lowest-numbered ones. It is the
// driver's only scheduling pass: it runs on admission, after every task
// completion and fetch timeout, and after every transition that can open a
// slot or create work (a machine failing or recovering, an exclusion
// expiring, a job aborting). When no regular work fits, the speculation
// policy may launch backup attempts. Dead and excluded machines receive
// nothing.
func (d *Driver) schedule() {
	for {
		progress := false
		for w := range d.execs {
			if !d.available(w) || d.free[w] == 0 {
				continue
			}
			st, idx := d.pickTask(w)
			if st == nil {
				continue
			}
			if d.launch(st, idx, w) {
				progress = true
			}
		}
		if progress {
			continue
		}
		for w := range d.execs {
			if !d.available(w) || d.free[w] == 0 {
				continue
			}
			if d.maybeSpeculate(w) {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// pickTask chooses the next task for worker w. Pools are tried in weighted
// fair-share order (smallest running-tasks-over-weight deficit first); the
// chosen pool's policy picks a job; within a job, stages in DAG order.
// Locality: an input-stage task whose block lives on w is preferred; a
// stage's remaining remote tasks are only taken when it has no local ones.
// Running counts are kept rather than summed, each pool keeps its jobs in
// pick order so the walk stops at the first job with work, and finding a
// local task is a cursor step (see localIndex).
func (d *Driver) pickTask(w int) (*stageState, int) {
	for _, p := range d.poolOrder() {
		if st, idx, ok := d.pickFromPool(p, w); ok {
			return st, idx
		}
	}
	return nil, 0
}

// pickFromStage returns the position in st.pending to run on w.
func (d *Driver) pickFromStage(st *stageState, w int) (int, bool) {
	if st.spec.InputBlocks == nil {
		return 0, true // no locality to honour; FIFO
	}
	// pending is ascending, so the lowest queued local task is the first
	// pending task with a replica on w.
	if st.local == nil {
		st.local = newLocalIndex(st.spec.InputBlocks, len(d.execs))
	}
	if ti, ok := st.local.first(w, st.queued); ok {
		pos, _ := slices.BinarySearch(st.pending, ti)
		return pos, true
	}
	// No local block here. Stealing another machine's local task the moment
	// a slot opens wrecks locality whenever slots outnumber tasks, so —
	// like Spark's delay scheduling — only run a task remotely if none of
	// its home machines has a free slot to claim it.
	for pos, ti := range st.pending {
		if !d.hasFreeHome(st.spec.InputBlocks[ti].Replicas) {
			return pos, true
		}
	}
	return 0, false
}

// hasFreeHome reports whether any replica's machine has an open slot it
// could be assigned work on.
func (d *Driver) hasFreeHome(replicas []dfs.Location) bool {
	for _, r := range replicas {
		if d.available(r.Machine) && d.free[r.Machine] > 0 {
			return true
		}
	}
	return false
}

// liveReplica returns a replica of b on a live machine. Excluded machines
// qualify: exclusion bars task assignment, not data access — their disks
// still serve reads.
func (d *Driver) liveReplica(b *dfs.Block) (dfs.Location, bool) {
	for _, r := range b.Replicas {
		if !d.dead[r.Machine] {
			return r, true
		}
	}
	return dfs.Location{}, false
}

// launch takes the pending task at position pos of st and runs it on w,
// reporting whether an attempt actually started.
func (d *Driver) launch(st *stageState, pos, w int) bool {
	ti := st.pending[pos]
	st.pending = append(st.pending[:pos], st.pending[pos+1:]...)
	st.queued[ti] = false
	return d.launchAttempt(st, ti, w)
}

// launchAttempt starts one attempt of task ti on worker w (first run,
// failure retry, or speculative backup), unless the fault injector fails it
// first. A task that cannot be resolved — every replica of its input block
// is on a failed machine — aborts the job instead of launching.
func (d *Driver) launchAttempt(st *stageState, ti, w int) bool {
	t, err := d.resolve(st, ti, w)
	if err != nil {
		d.abortJob(st.job, fmt.Errorf("jobsched: job %q: resolving task %d of stage %q: %w", st.job.Spec.Name, ti, st.spec.Name, err))
		return false
	}
	att := d.newAttempt(w, d.cluster.Engine.Now())
	st.attempts[ti] = append(st.attempts[ti], att)
	d.addRunning(st, 1)
	if !st.started {
		st.started = true
		st.metrics.Start = d.cluster.Engine.Now()
	}
	d.free[w]--
	d.inflight[w]++
	if done := d.takeCompletion(st, ti, w, att).fn; !d.injectFault(t, done) {
		d.execs[w].Launch(t, done)
	}
	if d.cfg.FetchRetryTimeout > 0 && (len(t.Fetches) > 0 || t.RemoteRead != nil) {
		d.armFetchTimeout(st, ti, att, w)
	}
	return true
}

// onAttemptDone is the Launch completion callback (dispatched through a
// pooled completionOp; see instantiate.go).
func (d *Driver) onAttemptDone(st *stageState, ti, w int, att *attempt, m *task.TaskMetrics) {
	d.inflight[w]--
	if att.retired {
		// The machine failed, the fetch timed out, or the attempt's input
		// was invalidated; accounting was already unwound. The executor
		// slot the zombie held opens up now. Dead machines' slots stay
		// zero until recovery.
		if !d.dead[w] {
			d.free[w]++
		}
		d.schedule()
		return
	}
	att.retired = true
	d.free[w]++
	d.addRunning(st, -1)
	if m.Failed {
		d.handleAttemptFailure(st, ti, w, m.FailReason)
		d.schedule()
		return
	}
	if st.doneTasks[ti] {
		// A competing speculative attempt already won.
		d.schedule()
		return
	}
	st.doneTasks[ti] = true
	st.completed++
	st.metrics.Tasks[ti] = m
	st.durations = append(st.durations, float64(m.End-m.Start))
	// A stage with children registers even a zero-byte output: the tracker
	// needs the entry to plan fetches at all.
	if st.spec.ShuffleOutBytes > 0 || len(st.children) > 0 {
		d.tracker.RegisterMapOutput(st.spec.ID+st.job.stageBase(), ti, w, st.spec.ShuffleOutBytes, st.spec.ShuffleInMemory)
	}
	if st.completed == st.spec.NumTasks && !st.finished {
		d.finishStage(st)
	}
	d.schedule()
}

// stageBase namespaces stage IDs per job in the shared shuffle tracker.
func (h *JobHandle) stageBase() int { return h.base }

// finishStage marks st complete and unblocks its children.
func (d *Driver) finishStage(st *stageState) {
	st.finished = true
	st.metrics.End = d.cluster.Engine.Now()
	h := st.job
	for _, cid := range st.children {
		h.stages[cid].waitingOn--
	}
	h.remaining--
	if h.remaining == 0 {
		h.done = true
		h.Metrics.End = d.cluster.Engine.Now()
		d.releaseJob(h)
	}
}

// AbortAll fails every unfinished job with err — the cancellation epilogue:
// after an engine abort stops Run mid-flight, the caller uses AbortAll to
// turn the in-flight jobs into cleanly failed ones (JobHandle.Err set, pools
// released, metrics end-stamped at the abort time) so partial results are
// well-formed rather than half-updated.
func (d *Driver) AbortAll(err error) {
	for _, h := range d.jobs {
		if !h.finished() {
			d.abortJob(h, err)
		}
	}
}

// abortJob fails h with err: live attempts are retired (their executors
// finish simulating them as zombies, releasing slots on completion), queued
// work is dropped, and the error is surfaced through JobHandle.Err and
// Driver.Wait. Other jobs sharing the driver continue unaffected.
func (d *Driver) abortJob(h *JobHandle, err error) {
	if h.finished() {
		return
	}
	h.failed = true
	h.err = err
	h.Metrics.End = d.cluster.Engine.Now()
	for _, st := range h.stages {
		for _, ti := range st.pending {
			st.queued[ti] = false
		}
		st.pending = st.pending[:0]
		for ti := range st.attempts {
			for _, a := range st.attempts[ti] {
				if !a.retired {
					a.retired = true
					d.addRunning(st, -1)
				}
			}
		}
	}
	d.releaseJob(h)
	d.schedule()
}

// resolve turns (stage, index) into a concrete Task for machine w. Task
// structs come from the driver's slab (see instantiate.go); placement and
// fetch plans are computed fresh here at every launch.
func (d *Driver) resolve(st *stageState, ti, w int) (*task.Task, error) {
	spec := st.spec
	t := d.newTask()
	*t = task.Task{Stage: spec, Index: ti, Machine: w, DiskReadDisk: -1}
	switch {
	case spec.InputBlocks != nil:
		b := spec.InputBlocks[ti]
		if disk := b.LocalDisk(w); disk >= 0 && !d.dead[w] {
			t.DiskReadBytes = b.Bytes
			t.DiskReadDisk = disk
		} else {
			replica, ok := d.liveReplica(b)
			if !ok {
				return nil, fmt.Errorf("every replica of block %d of %q is on a failed machine (replication too low for this failure)", b.Index, b.File)
			}
			t.RemoteRead = &task.Fetch{From: replica.Machine, Bytes: b.Bytes, FromDisk: replica.Disk}
		}
	case spec.InputFromMem:
		t.MemReadBytes = spec.InputBytesPerTask
	case spec.HasShuffleInput():
		parents := d.parentScratch[:0]
		for _, p := range spec.ParentIDs {
			parents = append(parents, p+st.job.stageBase())
		}
		d.parentScratch = parents
		fetches, err := d.tracker.FetchesFor(parents, ti, spec.NumTasks)
		if err != nil {
			return nil, err
		}
		// Rewrite fetch stage IDs back to job-local for executor cache keys.
		for i := range fetches {
			fetches[i].Stage -= st.job.stageBase()
		}
		t.Fetches = fetches
	}
	return t, nil
}

// requeue returns ti to st's pending queue unless it already has a live
// attempt, a winning attempt, or is queued.
func (d *Driver) requeue(st *stageState, ti int) {
	if st.doneTasks[ti] || st.queued[ti] || st.hasLiveAttempt(ti) {
		return
	}
	st.enqueue(ti)
}
