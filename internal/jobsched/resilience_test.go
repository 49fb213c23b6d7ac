package jobsched

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxTaskFailures != 4 {
		t.Fatalf("MaxTaskFailures default = %d, want 4", c.MaxTaskFailures)
	}
	if c.ExcludeAfterFailures != 3 {
		t.Fatalf("ExcludeAfterFailures default = %d, want 3", c.ExcludeAfterFailures)
	}
	if c.FetchRetryTimeout != 0 {
		t.Fatalf("FetchRetryTimeout default = %v, want 0 (disabled)", c.FetchRetryTimeout)
	}
	// Explicit values survive; -1 disables exclusion.
	c = Config{MaxTaskFailures: 2, ExcludeAfterFailures: -1, FetchRetryTimeout: 7}.withDefaults()
	if c.MaxTaskFailures != 2 || c.ExcludeAfterFailures != -1 || c.FetchRetryTimeout != 7 {
		t.Fatalf("explicit values not preserved: %+v", c)
	}
}

// faultEveryAttempt fails every attempt launched on `machine` (or everywhere
// when machine is -1) before `until` (sim.Forever for always), counting the
// attempts it fails.
type faultEveryAttempt struct {
	machine int
	until   sim.Time
	hits    int
}

func (f *faultEveryAttempt) AttemptFault(tk *task.Task, now sim.Time) (string, sim.Duration, bool) {
	if (f.machine < 0 || tk.Machine == f.machine) && now < f.until {
		f.hits++
		return "test-injected fault", 0.1, true
	}
	return "", 0, false
}

// faultyDriver is monoDriver with a fault injector and one CPU-only job.
func faultyDriver(t *testing.T, n int, cfg Config, inj FaultInjector) (*Driver, *JobHandle) {
	t.Helper()
	_, d := monoDriver(t, n, cfg)
	d.SetFaultInjector(inj)
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 48, OpCPU: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return d, h
}

// TestFaultedAttemptsNeverReachExecutors: the driver decides injected
// faults itself, so an attempt the injector fails is never handed to an
// executor, and every attempt it passes is.
func TestFaultedAttemptsNeverReachExecutors(t *testing.T) {
	inj := &faultEveryAttempt{machine: 0, until: 1}
	c := testCluster(t, 2)
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 1})
	g := core.NewGroup(c, core.Options{})
	reached := 0
	execs := make([]task.Executor, 2)
	for i, w := range g.Workers {
		execs[i] = &gauntletExec{Executor: w, onLaunch: func(tk *task.Task) {
			reached++
			if tk.Machine == inj.machine && c.Engine.Now() < inj.until {
				t.Errorf("a faulted attempt of task %d reached machine %d's executor at t=%v", tk.Index, tk.Machine, c.Engine.Now())
			}
		}}
	}
	d, err := NewWithConfig(c, fs, execs, Config{MaxTaskFailures: 50, ExcludeAfterFailures: -1})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultInjector(inj)
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 48, OpCPU: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	for _, atts := range h.stages[0].attempts {
		attempts += len(atts)
	}
	if inj.hits == 0 {
		t.Fatal("the injector failed no attempt")
	}
	if reached != attempts-inj.hits {
		t.Fatalf("%d attempts reached an executor, want %d launched less %d faulted", reached, attempts, inj.hits)
	}
}

func TestTaskRetryBudgetAbortsJob(t *testing.T) {
	// Every attempt everywhere fails: task 0 burns its budget and the job
	// aborts with a descriptive error instead of panicking or hanging.
	d, h := faultyDriver(t, 2, Config{ExcludeAfterFailures: -1}, &faultEveryAttempt{machine: -1, until: sim.Forever})
	if err := d.Wait(); err == nil {
		t.Fatal("Wait returned nil for a doomed job")
	}
	if !h.Failed() || h.Done() {
		t.Fatalf("job state wrong: failed=%v done=%v", h.Failed(), h.Done())
	}
	if err := h.Err(); err == nil || !strings.Contains(err.Error(), "MaxTaskFailures") {
		t.Fatalf("abort error %v does not mention MaxTaskFailures", err)
	}
}

func TestTransientFaultsRetryToCompletion(t *testing.T) {
	// Faults stop at t=1; every task eventually succeeds and the job
	// completes despite the early failures. Failed attempts retire in
	// ~0.1 s, so tasks can burn many attempts inside the window — the
	// budget must be generous enough to outlast it.
	d, h := faultyDriver(t, 2, Config{MaxTaskFailures: 50, ExcludeAfterFailures: -1}, &faultEveryAttempt{machine: -1, until: 1})
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("job incomplete")
	}
	for i, tm := range h.Metrics.Stages[0].Tasks {
		if tm == nil {
			t.Fatalf("task %d has no winning metrics", i)
		}
		if tm.Failed {
			t.Fatalf("task %d recorded a failed attempt as its result", i)
		}
	}
}

func TestExclusionBlocksSchedulingUntilBackoffExpires(t *testing.T) {
	// Machine 0 fails every attempt before t=2. Its second failure, at
	// t=0.1, excludes it for excludeBackoff (30 s); once readmitted, with the
	// fault window long over, it must receive and complete tasks again.
	c, d := monoDriver(t, 3, Config{ExcludeAfterFailures: 2, MaxTaskFailures: 20})
	d.SetFaultInjector(&faultEveryAttempt{machine: 0, until: 2})
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 160, OpCPU: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Probe while the engine runs: excluded soon after the failures and
	// still near the end of the backoff, no longer excluded after it.
	const until = 0.1 + excludeBackoff
	for _, at := range []sim.Time{1, until - 0.5} {
		c.Engine.At(at, func() {
			if !d.Excluded(0) {
				t.Errorf("machine 0 not excluded at t=%v, within its %vs backoff", at, excludeBackoff)
			}
		})
	}
	c.Engine.At(until+0.5, func() {
		if d.Excluded(0) {
			t.Error("machine 0 still excluded after backoff expiry")
		}
	})
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("job incomplete")
	}
	// While excluded, machine 0 must have started nothing; after
	// readmission it must have contributed.
	backToWork := false
	for i, tm := range h.Metrics.Stages[0].Tasks {
		if tm.Machine != 0 {
			continue
		}
		if tm.Start > 0.2 && tm.Start < until {
			t.Fatalf("task %d started on excluded machine 0 at %v", i, tm.Start)
		}
		if tm.Start >= until {
			backToWork = true
		}
	}
	if !backToWork {
		t.Fatal("machine 0 never rejoined scheduling after backoff expiry")
	}
}

func TestRecoverMachineRejoinsScheduling(t *testing.T) {
	c, d := monoDriver(t, 4, Config{})
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 64, OpCPU: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.Engine.At(1, func() { _ = d.FailMachine(3) })
	c.Engine.At(5, func() {
		if err := d.RecoverMachine(3); err != nil {
			t.Error(err)
		}
	})
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("job incomplete after crash + recovery")
	}
	rejoined := false
	for i, tm := range h.Metrics.Stages[0].Tasks {
		if tm.Machine != 3 {
			continue
		}
		if tm.Start > 1 && tm.Start < 5 {
			t.Fatalf("task %d ran on machine 3 while it was down (start %v)", i, tm.Start)
		}
		if tm.Start >= 5 {
			rejoined = true
		}
	}
	if !rejoined {
		t.Fatal("recovered machine received no tasks after rejoining")
	}
}

func TestRecoverMachineValidation(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	if err := d.RecoverMachine(9); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
	if err := d.RecoverMachine(1); err != nil {
		t.Fatal("recovering a live machine should be a no-op, not an error")
	}
}

func TestRecoveryRestoresDFSReplicas(t *testing.T) {
	// Single-replica input on machine 1: while 1 is down its block is
	// unreachable, but a job submitted after RecoverMachine resolves and
	// completes — recovery restores the replicas, not just the slots.
	c, d := monoDriver(t, 2, Config{})
	file, err := d.fs.CreateAt("/in", []int64{64e6, 64e6}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var h *JobHandle
	c.Engine.At(0.5, func() { _ = d.FailMachine(1) })
	c.Engine.At(3, func() {
		if err := d.RecoverMachine(1); err != nil {
			t.Error(err)
			return
		}
		h, err = d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
			{ID: 0, Name: "read", NumTasks: 2, OpCPU: 1, InputBlocks: file.Blocks},
		}})
		if err != nil {
			t.Error(err)
		}
	})
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if h == nil || !h.Done() {
		t.Fatal("job submitted after recovery did not complete")
	}
}

func TestUnresolvableBlockAbortsInsteadOfPanicking(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	file, err := d.fs.CreateAt("/in", []int64{64e6, 64e6}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FailMachine(1); err != nil {
		t.Fatal(err)
	}
	h, err := d.Submit(&task.JobSpec{Name: "doomed", Stages: []*task.StageSpec{
		{ID: 0, Name: "read", NumTasks: 2, OpCPU: 1, InputBlocks: file.Blocks},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(); err == nil {
		t.Fatal("job with an unreachable single-replica block should abort")
	}
	if err := h.Err(); err == nil || !strings.Contains(err.Error(), "replica") {
		t.Fatalf("abort error %v does not describe the lost replica", err)
	}
}

func TestAllMachinesDeadStallsWithErrorNotPanic(t *testing.T) {
	c, d := monoDriver(t, 2, Config{})
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 16, OpCPU: 5, InputFromMem: true, InputBytesPerTask: 1e6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.Engine.At(1, func() {
		_ = d.FailMachine(0)
		_ = d.FailMachine(1)
	})
	if err := d.Wait(); err == nil {
		t.Fatal("Wait returned nil with every machine dead")
	}
	if err := h.Err(); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("stall error %v does not describe the deadlock", err)
	}
	if h.Done() {
		t.Fatal("job cannot be done with all machines dead")
	}
}

func TestFailRunningTasksRetriesElsewhere(t *testing.T) {
	c, d := monoDriver(t, 3, Config{ExcludeAfterFailures: -1})
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 24, OpCPU: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	c.Engine.At(1, func() { killed = d.FailRunningTasks(1, 2, "test kill") })
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if killed != 2 {
		t.Fatalf("killed %d attempts, want 2", killed)
	}
	if !h.Done() {
		t.Fatal("job incomplete after injected kills")
	}
	for i, tm := range h.Metrics.Stages[0].Tasks {
		if tm == nil || tm.Failed {
			t.Fatalf("task %d lacks a successful result", i)
		}
	}
}

func TestFetchTimeoutRetriesStalledReduce(t *testing.T) {
	// Machine 0's link collapses to 0.1% as the reduce starts fetching; the
	// fetch timeout abandons the stalled attempts and retries until the link
	// recovers, after which the job completes.
	// Light reduce CPU keeps a healthy attempt well under the 3 s timeout —
	// the timeout bounds the whole attempt, not just the fetch phase.
	c, d := monoDriver(t, 3, Config{FetchRetryTimeout: 3, MaxTaskFailures: 20, ExcludeAfterFailures: -1})
	h, err := d.Submit(&task.JobSpec{Name: "mr", Stages: []*task.StageSpec{
		{ID: 0, Name: "map", NumTasks: 12, OpCPU: 1, ShuffleOutBytes: 20e6},
		{ID: 1, Name: "reduce", NumTasks: 6, OpCPU: 0.5, ParentIDs: []int{0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.Engine.At(0.5, func() { c.Fabric.SetLinkSpeed(0, 0.001) })
	c.Engine.At(12, func() { c.Fabric.SetLinkSpeed(0, 1) })
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("job incomplete after link recovery")
	}
	if end := h.Metrics.End; end <= 12 {
		t.Fatalf("job finished at %v, before the link recovered — timeout never fired?", end)
	}
}

func TestReopenStageDoesNotInflateSlots(t *testing.T) {
	// Regression: retiring a child stage's in-flight attempts on a machine
	// failure must not free their slots immediately — the executor zombies
	// release them on completion. Double-freeing inflates free[] and
	// over-subscribes workers.
	c := testCluster(t, 2)
	d, fakes := fakeDriver(t, c, 2, 1)
	h, err := d.Submit(mapReduceJob(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Fail machine 1 when reduces are in flight (maps take 2 rounds of 1 s).
	c.Engine.At(2.5, func() { _ = d.FailMachine(1) })
	d.Run()
	if !h.Done() {
		t.Fatal("job incomplete")
	}
	for i, f := range fakes {
		if f.maxInflight > f.slots {
			t.Fatalf("machine %d ran %d concurrent tasks with %d slots", i, f.maxInflight, f.slots)
		}
	}
}

func TestSpeculableTaskEdgeCases(t *testing.T) {
	c, d := monoDriver(t, 2, Config{Speculation: true})
	now := c.Engine.Now() + 100
	spec := &task.StageSpec{ID: 0, Name: "s", NumTasks: 4}
	base := func() *stageState {
		return &stageState{
			spec:      spec,
			started:   true,
			running:   1,
			completed: 3,
			doneTasks: []bool{true, true, true, false},
			durations: []float64{1, 1, 1},
			attempts:  [][]*attempt{nil, nil, nil, {{machine: 1, start: 0}}},
			failures:  make([]int, 4),
		}
	}

	if _, ok := d.speculableTask(base(), 0, now); !ok {
		t.Fatal("qualifying straggler not speculated")
	}
	st := base()
	st.started = false
	if _, ok := d.speculableTask(st, 0, now); ok {
		t.Fatal("speculated an unstarted stage")
	}
	st = base()
	st.finished = true
	if _, ok := d.speculableTask(st, 0, now); ok {
		t.Fatal("speculated a finished stage")
	}
	st = base()
	st.pending = []int{3}
	if _, ok := d.speculableTask(st, 0, now); ok {
		t.Fatal("speculated while regular work is still pending")
	}
	st = base()
	st.durations = nil
	if _, ok := d.speculableTask(st, 0, now); ok {
		t.Fatal("speculated with no completed durations to judge against")
	}
	st = base()
	st.completed = 1
	st.doneTasks = []bool{true, false, false, false}
	if _, ok := d.speculableTask(st, 0, now); ok {
		t.Fatal("speculated below the minimum completed fraction")
	}
	st = base()
	st.attempts[3] = append(st.attempts[3], &attempt{machine: 0, start: 0})
	if _, ok := d.speculableTask(st, 0, now); ok {
		t.Fatal("speculated a task that already has a backup attempt")
	}
	st = base()
	st.attempts[3][0].retired = true
	if _, ok := d.speculableTask(st, 0, now); ok {
		t.Fatal("speculated a retired attempt")
	}
	st = base()
	if _, ok := d.speculableTask(st, 1, now); ok {
		t.Fatal("speculated onto the same machine as the original attempt")
	}
	// Zero-duration completions: threshold is zero, so any positive age
	// qualifies — must not divide by zero or reject.
	st = base()
	st.durations = []float64{0, 0, 0}
	if ti, ok := d.speculableTask(st, 0, now); !ok || ti != 3 {
		t.Fatalf("zero-duration history: got (%d, %v), want task 3 speculated", ti, ok)
	}
}

// metricsFingerprint folds every observable outcome of a set of jobs — per
// job and per stage start/end, per task machine/timing/failure, abort
// errors — into one hash, so two runs can be compared bit-for-bit.
func metricsFingerprint(hs []*JobHandle) uint64 {
	h := fnv.New64a()
	for _, jh := range hs {
		fmt.Fprintf(h, "job %q done=%v start=%v end=%v err=%v\n",
			jh.Spec.Name, jh.Done(), jh.Metrics.Start, jh.Metrics.End, jh.Err())
		for si, sm := range jh.Metrics.Stages {
			fmt.Fprintf(h, " stage %d start=%v end=%v\n", si, sm.Start, sm.End)
			for ti, tm := range sm.Tasks {
				if tm == nil {
					fmt.Fprintf(h, "  task %d nil\n", ti)
					continue
				}
				fmt.Fprintf(h, "  task %d m=%d start=%v end=%v failed=%v\n",
					ti, tm.Machine, tm.Start, tm.End, tm.Failed)
			}
		}
	}
	return h.Sum64()
}

// TestResilienceGauntletReplays runs the full resilience gauntlet —
// injected task kills, a collapsed link driving fetch timeouts, a machine
// crash and recovery, exclusion backoff — over five same-shaped jobs that
// arrive at different times. It runs with a fetch timeout below a healthy
// reduce attempt's runtime (every job aborts on its retry budget) and with
// one above it (every job recovers and completes), each twice, and checks
// that every observable outcome replays bit for bit.
func TestResilienceGauntletReplays(t *testing.T) {
	arrivals := []sim.Time{0, 3, 7, 12, 20}
	run := func(timeout sim.Duration) []*JobHandle {
		c, d := monoDriver(t, 4, Config{FetchRetryTimeout: timeout, MaxTaskFailures: 50, ExcludeAfterFailures: 3})
		hs := make([]*JobHandle, len(arrivals))
		for i, at := range arrivals {
			i := i
			c.Engine.At(at, func() {
				spec := mapReduceJob(12, 6)
				spec.Name = fmt.Sprintf("mr%d", i)
				h, err := d.Submit(spec)
				if err != nil {
					t.Error(err)
				}
				hs[i] = h
			})
		}
		c.Engine.At(1, func() { d.FailRunningTasks(1, 2, "injected kill") })
		c.Engine.At(0.5, func() { c.Fabric.SetLinkSpeed(0, 0.001) })
		c.Engine.At(2, func() { _ = d.FailMachine(2) })
		c.Engine.At(25, func() { _ = d.RecoverMachine(2) })
		c.Engine.At(40, func() { c.Fabric.SetLinkSpeed(0, 1) })
		d.Run()
		return hs
	}
	for _, timeout := range []sim.Duration{3, 8} {
		hs := run(timeout)
		for i, h := range hs {
			if h == nil {
				t.Fatalf("timeout %v: job %d was never submitted", timeout, i)
			}
		}
		first := metricsFingerprint(hs)
		if again := run(timeout); metricsFingerprint(again) != first {
			t.Fatalf("timeout %v: gauntlet replay diverged: %x vs %x", timeout, first, metricsFingerprint(again))
		}
	}
}

func TestRecoverMachineResetsExclusionBackoff(t *testing.T) {
	// Regression: RecoverMachine used to keep excludeCount/excludeUntil, so
	// a crashed-and-repaired machine inherited pre-crash exponential backoff
	// escalation. A recovered machine's first re-exclusion must use the base
	// excludeBackoff again.
	c := testCluster(t, 2)
	d, _ := fakeDriver(t, c, 1, 1)
	base := excludeBackoff
	exclude := func() {
		for i := 0; i < d.cfg.ExcludeAfterFailures; i++ {
			d.noteMachineFailure(1)
		}
	}
	exclude()
	if !d.excluded[1] || d.excludeUntil[1] != c.Engine.Now()+base {
		t.Fatalf("first exclusion until %v, want %v", d.excludeUntil[1], c.Engine.Now()+base)
	}
	d.excluded[1] = false // as readmitMachine would
	exclude()
	if d.excludeUntil[1] != c.Engine.Now()+2*base {
		t.Fatalf("second exclusion until %v, want doubled backoff %v", d.excludeUntil[1], c.Engine.Now()+2*base)
	}
	if err := d.FailMachine(1); err != nil {
		t.Fatal(err)
	}
	if err := d.RecoverMachine(1); err != nil {
		t.Fatal(err)
	}
	if d.excludeCount[1] != 0 || d.excludeUntil[1] != 0 {
		t.Fatalf("recovery kept exclusion history: count=%d until=%v", d.excludeCount[1], d.excludeUntil[1])
	}
	exclude()
	if d.excludeUntil[1] != c.Engine.Now()+base {
		t.Fatalf("post-recovery exclusion until %v, want base backoff %v", d.excludeUntil[1], c.Engine.Now()+base)
	}
	if d.excludeCount[1] != 1 {
		t.Fatalf("post-recovery excludeCount = %d, want 1", d.excludeCount[1])
	}
}

func TestMaxExcludeBackoffCapsDoubling(t *testing.T) {
	// Consecutive exclusions of one machine last 30 s, then double, and stop
	// doubling at maxExcludeBackoff: six doublings, 1,920 s.
	c := testCluster(t, 2)
	d, _ := fakeDriver(t, c, 1, 1)
	for i, want := range []sim.Duration{30, 60, 120, 240, 480, 960, 1920, 1920, 1920} {
		d.machineFailures[1] = d.cfg.ExcludeAfterFailures - 1
		d.noteMachineFailure(1)
		if !d.excluded[1] {
			t.Fatalf("exclusion %d did not exclude the machine", i+1)
		}
		if got := d.excludeUntil[1] - c.Engine.Now(); got != want {
			t.Fatalf("exclusion %d lasts %v, want %v", i+1, got, want)
		}
		d.excluded[1] = false // as readmitMachine would
	}
}

func TestFetchTimeoutAbortMessageSingleUnit(t *testing.T) {
	// Regression for the double-unit abort reason: "within the %v s fetch
	// timeout" rendered two unit suffixes. Drive a reduce into repeated
	// fetch timeouts until the retry budget aborts the job and check the
	// rendered reason.
	c, d := monoDriver(t, 3, Config{FetchRetryTimeout: 2, MaxTaskFailures: 2, ExcludeAfterFailures: -1})
	h, err := d.Submit(mapReduceJob(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	c.Engine.At(0.5, func() {
		for i := 0; i < c.Size(); i++ {
			c.Fabric.SetLinkSpeed(i, 0.0001)
		}
	})
	d.Run()
	if h.Err() == nil {
		t.Fatal("job survived a permanently collapsed network")
	}
	msg := h.Err().Error()
	if !strings.Contains(msg, "within the 2s fetch timeout") {
		t.Fatalf("abort reason %q lacks the single-unit timeout phrasing", msg)
	}
	if strings.Contains(msg, "s s") {
		t.Fatalf("abort reason %q still renders a double unit", msg)
	}
}
