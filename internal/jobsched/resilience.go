package jobsched

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/task"
)

// This file holds the driver's recovery-side policies: machines rejoining
// after a crash, per-machine failure counting with timed exclusion
// (Spark's executor health tracker), bounded task retry budgets, fetch
// retry timeouts, and injected attempt faults and in-flight task kills. The
// fail-stop side (FailMachine, shuffle-output invalidation, stage rollback)
// is in failure.go.

// FaultInjector decides, at launch time, whether a task attempt suffers a
// transient executor-side fault. The driver consults it once per attempt,
// where it would hand the attempt to its executor; a failed attempt never
// reaches the executor, but occupies its slot for `after` of virtual time —
// the work wasted before the fault manifested — and then completes with
// TaskMetrics.Failed and the reason.
//
// Implementations must be deterministic: the simulation is single-threaded,
// so a seeded PRNG consulted in call order reproduces bit-identical fault
// schedules (internal/faults.Injector is the canonical implementation).
type FaultInjector interface {
	// AttemptFault reports whether the attempt t, launching at now, fails,
	// and if so why and how long after its launch.
	AttemptFault(t *task.Task, now sim.Time) (reason string, after sim.Duration, failed bool)
}

// SetFaultInjector makes f decide every attempt this driver launches from
// now on; nil stops injection.
func (d *Driver) SetFaultInjector(f FaultInjector) { d.faults = f }

// injectFault asks the fault injector about t's attempt. On a hit the
// attempt is not launched: done fires with a failed TaskMetrics once the
// injector's `after` has passed, and injectFault reports true.
func (d *Driver) injectFault(t *task.Task, done func(*task.TaskMetrics)) bool {
	if d.faults == nil {
		return false
	}
	eng := d.cluster.Engine
	reason, after, failed := d.faults.AttemptFault(t, eng.Now())
	if !failed {
		return false
	}
	tm := &task.TaskMetrics{
		StageID:    t.Stage.ID,
		Index:      t.Index,
		Machine:    t.Machine,
		Start:      eng.Now(),
		Failed:     true,
		FailReason: reason,
	}
	eng.After(after, func() {
		tm.End = eng.Now()
		done(tm)
	})
	return true
}

// RecoverMachine rejoins a machine failed with FailMachine: it becomes
// schedulable again at the current virtual time, with a clean failure
// record, and the DFS replicas it hosts become readable again (the
// metadata-only DFS never forgot them; availability is the driver's dead
// set). Shuffle outputs lost in the crash stay lost — the executor's local
// files did not survive — so stages invalidated at crash time still
// re-execute.
//
// Capacity re-registers as MaxConcurrentTasks minus the machine's zombie
// attempts: tasks that were running at crash time keep simulating to
// completion inside the executor, and each releases its slot only when its
// (ignored) completion callback fires.
func (d *Driver) RecoverMachine(m int) error {
	if m < 0 || m >= len(d.execs) {
		return fmt.Errorf("jobsched: no machine %d", m)
	}
	if !d.dead[m] {
		return nil
	}
	d.dead[m] = false
	d.excluded[m] = false
	d.machineFailures[m] = 0
	// A repaired machine starts with a clean exclusion history too: without
	// this, its next exclusion would inherit the pre-crash exponential
	// escalation (and a stale excludeUntil could shadow a fresh deadline).
	d.excludeCount[m] = 0
	d.excludeUntil[m] = 0
	d.free[m] = d.execs[m].MaxConcurrentTasks() - d.inflight[m]
	if d.free[m] < 0 {
		d.free[m] = 0
	}
	d.schedule()
	return nil
}

// Excluded reports whether machine m is currently barred from new task
// assignments by the exclusion policy.
func (d *Driver) Excluded(m int) bool { return d.excluded[m] }

// FailRunningTasks kills up to n live attempts currently running on machine
// m (in deterministic job/stage/task order), reporting how many were
// killed. Each kill is a transient failure: it charges the task's retry
// budget and the machine's exclusion counter, and the task is retried
// elsewhere. The killed attempts become zombies — the executor finishes
// simulating them, and their slots free only then — which is how a real
// driver experiences a task JVM that stops responding.
func (d *Driver) FailRunningTasks(m, n int, reason string) int {
	if n <= 0 || m < 0 || m >= len(d.execs) {
		return 0
	}
	killed := 0
	for _, h := range d.jobs {
		if h.finished() {
			continue
		}
		for _, st := range h.stages {
			if killed >= n || h.finished() {
				break
			}
			// attempts is indexed by task, so walking it IS the deterministic
			// task order the old map-key sort produced.
			for ti := range st.attempts {
				if killed >= n || h.finished() {
					break
				}
				if st.doneTasks[ti] {
					continue
				}
				for _, a := range st.attempts[ti] {
					if a.retired || a.machine != m {
						continue
					}
					a.retired = true
					d.addRunning(st, -1)
					killed++
					d.handleAttemptFailure(st, ti, m, reason)
					break // at most one attempt per task per call
				}
			}
		}
	}
	if killed > 0 {
		d.schedule()
	}
	return killed
}

// handleAttemptFailure processes one failed (already-retired) attempt of
// task ti on machine w: charge the retry budget — aborting the job when it
// is exhausted — re-queue the task, and count the failure against w's
// exclusion threshold.
func (d *Driver) handleAttemptFailure(st *stageState, ti, w int, reason string) {
	h := st.job
	if h.finished() {
		return
	}
	if st.doneTasks[ti] {
		// A speculative twin already won; the task needs no retry, but the
		// machine still misbehaved.
		d.noteMachineFailure(w)
		return
	}
	st.failures[ti]++
	if st.failures[ti] >= d.cfg.MaxTaskFailures {
		d.abortJob(h, fmt.Errorf("jobsched: job %q aborted: task %d of stage %q failed %d times, exceeding MaxTaskFailures (last failure on machine %d: %s)",
			h.Spec.Name, ti, st.spec.Name, st.failures[ti], w, reason))
		return
	}
	d.requeue(st, ti)
	d.noteMachineFailure(w)
}

// noteMachineFailure counts one failed attempt against machine w and, at
// the configured threshold, excludes w from new assignments for an
// exponentially growing backoff.
func (d *Driver) noteMachineFailure(w int) {
	if d.cfg.ExcludeAfterFailures < 0 || d.dead[w] || d.excluded[w] {
		return
	}
	d.machineFailures[w]++
	if d.machineFailures[w] < d.cfg.ExcludeAfterFailures {
		return
	}
	backoff := excludeBackoff
	for i := 0; i < d.excludeCount[w] && backoff*2 <= maxExcludeBackoff; i++ {
		backoff *= 2
	}
	d.excludeCount[w]++
	d.machineFailures[w] = 0
	d.excluded[w] = true
	until := d.cluster.Engine.Now() + backoff
	d.excludeUntil[w] = until
	d.cluster.Engine.At(until, func() { d.readmitMachine(w, until) })
}

// readmitMachine ends an exclusion, unless it was superseded (the machine
// died, recovered, or was re-excluded with a later deadline).
func (d *Driver) readmitMachine(w int, until sim.Time) {
	if d.dead[w] || !d.excluded[w] || d.excludeUntil[w] != until {
		return
	}
	d.excluded[w] = false
	d.schedule()
}

// armFetchTimeout abandons att if it is still running when the configured
// fetch timeout expires, charging a failure and retrying the task on
// another machine. The abandoned attempt keeps its slot until the executor
// finishes simulating it (zombie), like any other transient failure. The
// timer callback is a pooled timeoutOp (instantiate.go), not a fresh closure.
func (d *Driver) armFetchTimeout(st *stageState, ti int, att *attempt, w int) {
	d.cluster.Engine.After(d.cfg.FetchRetryTimeout, d.takeTimeout(st, ti, w, att).fn)
}

// onFetchTimeout is the timer body.
func (d *Driver) onFetchTimeout(st *stageState, ti, w int, att *attempt) {
	if att.retired || st.doneTasks[ti] || st.job.finished() {
		return
	}
	att.retired = true
	d.addRunning(st, -1)
	d.handleAttemptFailure(st, ti, w,
		fmt.Sprintf("shuffle fetch did not complete within the %vs fetch timeout", d.cfg.FetchRetryTimeout))
	d.schedule()
}
