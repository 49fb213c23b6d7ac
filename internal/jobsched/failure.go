package jobsched

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config tunes driver policies beyond the paper's defaults.
type Config struct {
	// Speculation launches backup copies of straggling tasks (Spark's
	// spark.speculation): once 75% of a stage is complete, a task running
	// longer than 1.5 times the median completed duration gets a second
	// attempt on another machine, and the first finisher wins.
	Speculation bool

	// MaxTaskFailures bounds how many attempts of a single task may fail —
	// transient executor faults, injected kills, fetch timeouts; attempts
	// lost to a machine crash are not charged — before the job aborts with
	// an error on its JobHandle (Spark's spark.task.maxFailures). Default 4.
	MaxTaskFailures int
	// ExcludeAfterFailures is the per-machine failed-attempt count at which
	// the machine is excluded from new task assignments (Spark's executor
	// blacklisting / health tracker): for 30 s the first time, doubling with
	// each consecutive exclusion up to 1,920 s. The count resets on
	// re-admission and on recovery. Default 3; set to -1 to disable
	// exclusion.
	ExcludeAfterFailures int
	// FetchRetryTimeout, when positive, bounds how long an attempt with
	// remote input (shuffle fetches or a non-local block read) may run
	// before the driver abandons it and retries the task elsewhere,
	// charging a failure to the attempt's machine. Zero disables the
	// timeout: the simulated network never loses data, so timeouts only
	// matter under injected faults.
	FetchRetryTimeout sim.Duration

	// Pools declares the named scheduling pools jobs are submitted into
	// (see PoolConfig). A pool named DefaultPool is created automatically
	// (weight 1, fair-share, unlimited) unless declared here, so the zero
	// Config behaves exactly like the single-tenant driver.
	Pools []PoolConfig
}

const (
	// speculationMultiplier is how many times the median completed-task
	// duration a task must exceed to be speculated.
	speculationMultiplier = 1.5
	// speculationMinFraction is the completed fraction of a stage required
	// before any speculation.
	speculationMinFraction = 0.75
	// excludeBackoff is the first exclusion's length in virtual seconds;
	// each consecutive exclusion of the same machine doubles it.
	excludeBackoff sim.Duration = 30
	// maxExcludeBackoff caps the doubling after six steps.
	maxExcludeBackoff = 64 * excludeBackoff
)

func (c Config) withDefaults() Config {
	if c.MaxTaskFailures <= 0 {
		c.MaxTaskFailures = 4
	}
	if c.ExcludeAfterFailures == 0 {
		c.ExcludeAfterFailures = 3
	}
	return c
}

// FailMachine makes machine m fail-stop at the current virtual time:
//
//   - no further tasks are assigned to it, and results from its in-flight
//     tasks are discarded (the attempts are re-queued elsewhere);
//   - shuffle outputs it held are invalidated; if a downstream stage still
//     needs them, the producing tasks re-execute on live machines — Spark's
//     FetchFailure → parent-stage resubmission path;
//   - reduce tasks that were mid-fetch from m are re-queued (their fetch
//     would have failed).
//
// Input blocks whose only replica lived on m are lost for good: a job that
// still needs such a block aborts with a descriptive error on its JobHandle
// (never a panic), as a single-replica DFS must. Schedule failures after the
// input stage, replicate, or accept the abort. A failed machine may later
// rejoin via RecoverMachine.
func (d *Driver) FailMachine(m int) error {
	if m < 0 || m >= len(d.execs) {
		return fmt.Errorf("jobsched: no machine %d", m)
	}
	if d.dead[m] {
		return nil
	}
	d.dead[m] = true
	d.free[m] = 0
	// Death supersedes exclusion; recovery starts with a clean record.
	d.excluded[m] = false
	d.machineFailures[m] = 0
	for _, h := range d.jobs {
		if h.finished() {
			continue
		}
		for _, st := range h.stages {
			d.killAttemptsOn(st, m)
		}
		// Invalidate lost shuffle outputs parent-by-parent so children can
		// be rolled back.
		for _, st := range h.stages {
			if st.spec.ShuffleOutBytes == 0 || !d.childNeedsOutput(h, st) {
				continue
			}
			lost := d.tracker.RemoveMachine(st.spec.ID+h.base, m)
			if len(lost) == 0 {
				continue
			}
			d.reopenStage(h, st, lost)
		}
	}
	d.schedule()
	return nil
}

// killAttemptsOn discards st's live attempts on machine m, re-queuing tasks
// that have no surviving attempt.
func (d *Driver) killAttemptsOn(st *stageState, m int) {
	for ti := range st.attempts {
		for _, a := range st.attempts[ti] {
			if a.machine != m || a.retired {
				continue
			}
			a.retired = true
			d.addRunning(st, -1)
			if !st.doneTasks[ti] && !st.hasLiveAttempt(ti) && !st.queued[ti] {
				st.enqueue(ti)
			}
		}
	}
}

// childNeedsOutput reports whether any unfinished stage reads st's shuffle
// output. A finished consumer already has its data; the lost files are then
// irrelevant.
func (d *Driver) childNeedsOutput(h *JobHandle, st *stageState) bool {
	for _, cid := range st.children {
		if !h.stages[cid].finished {
			return true
		}
	}
	return false
}

// reopenStage rolls back the given completed task indices of st (their
// shuffle output is gone), re-blocks unfinished children, and re-queues
// children's in-flight attempts, which were fetching the lost data.
func (d *Driver) reopenStage(h *JobHandle, st *stageState, lost []int) {
	reopened := false
	for _, ti := range lost {
		if !st.doneTasks[ti] {
			continue
		}
		st.doneTasks[ti] = false
		st.completed--
		if !st.queued[ti] && !st.hasLiveAttempt(ti) {
			st.enqueue(ti)
		}
		reopened = true
	}
	if !reopened {
		return
	}
	if !st.finished {
		// The parent was still running: its children were never unblocked,
		// so there is nothing to roll back downstream.
		return
	}
	st.finished = false
	st.metrics.End = 0
	h.remaining++
	h.done = false
	for _, cid := range st.children {
		child := h.stages[cid]
		if child.finished {
			continue
		}
		// Block the child until the parent refills, and abandon its
		// in-flight attempts: their fetch plans reference the lost files.
		child.waitingOn++
		for ti := range child.attempts {
			for _, a := range child.attempts[ti] {
				if a.retired {
					continue
				}
				a.retired = true
				d.addRunning(child, -1)
				// The slot is NOT freed here: the executor is still simulating
				// the abandoned attempt, and its completion callback releases
				// the slot exactly once (free = capacity − inflight).
				if !child.doneTasks[ti] && !child.queued[ti] && !child.hasLiveAttempt(ti) {
					child.enqueue(ti)
				}
			}
		}
	}
}

// maybeSpeculate launches a backup attempt on worker w for the slowest
// qualifying task of any running stage, returning true if one was launched.
func (d *Driver) maybeSpeculate(w int) bool {
	if !d.cfg.Speculation {
		return false
	}
	now := d.cluster.Engine.Now()
	for _, h := range d.jobs {
		if h.finished() {
			continue
		}
		for _, st := range h.stages {
			ti, ok := d.speculableTask(st, w, now)
			if !ok {
				continue
			}
			return d.launchAttempt(st, ti, w)
		}
	}
	return false
}

// speculableTask finds a task of st worth duplicating on w.
func (d *Driver) speculableTask(st *stageState, w int, now sim.Time) (int, bool) {
	if !st.started || st.finished || len(st.pending) > 0 || st.running == 0 {
		return 0, false
	}
	frac := float64(st.completed) / float64(st.spec.NumTasks)
	if frac < speculationMinFraction || len(st.durations) == 0 {
		return 0, false
	}
	threshold := speculationMultiplier * metrics.Percentile(st.durations, 50)
	bestIdx, bestAge := -1, 0.0
	for ti := range st.attempts {
		atts := st.attempts[ti]
		if st.doneTasks[ti] || len(atts) >= 2 {
			continue // already done or already speculated
		}
		for _, a := range atts {
			if a.retired || a.machine == w {
				continue
			}
			if age := float64(now - a.start); age > threshold && age > bestAge {
				bestIdx, bestAge = ti, age
			}
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return bestIdx, true
}
