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
	if c.SpeculationMultiplier != 1.5 || c.SpeculationMinFraction != 0.75 {
		t.Fatalf("speculation defaults wrong: %+v", c)
	}
	if c.MaxTaskFailures != 4 {
		t.Fatalf("MaxTaskFailures default = %d, want 4", c.MaxTaskFailures)
	}
	if c.ExcludeAfterFailures != 3 {
		t.Fatalf("ExcludeAfterFailures default = %d, want 3", c.ExcludeAfterFailures)
	}
	if c.ExcludeBackoff != 30 {
		t.Fatalf("ExcludeBackoff default = %v, want 30", c.ExcludeBackoff)
	}
	if c.FetchRetryTimeout != 0 {
		t.Fatalf("FetchRetryTimeout default = %v, want 0 (disabled)", c.FetchRetryTimeout)
	}
	if c.MaxExcludeBackoff != 64*c.ExcludeBackoff {
		t.Fatalf("MaxExcludeBackoff default = %v, want 64× the %v base", c.MaxExcludeBackoff, c.ExcludeBackoff)
	}
	// Explicit values survive; -1 disables exclusion.
	c = Config{MaxTaskFailures: 2, ExcludeAfterFailures: -1, ExcludeBackoff: 5, FetchRetryTimeout: 7, MaxExcludeBackoff: 11}.withDefaults()
	if c.MaxTaskFailures != 2 || c.ExcludeAfterFailures != -1 || c.ExcludeBackoff != 5 || c.FetchRetryTimeout != 7 {
		t.Fatalf("explicit values not preserved: %+v", c)
	}
	if c.MaxExcludeBackoff != 11 {
		t.Fatalf("explicit MaxExcludeBackoff not preserved: %v", c.MaxExcludeBackoff)
	}
	// The default cap derives from an explicit base, not the default base.
	if c := (Config{ExcludeBackoff: 5}).withDefaults(); c.MaxExcludeBackoff != 320 {
		t.Fatalf("MaxExcludeBackoff from 5s base = %v, want 320", c.MaxExcludeBackoff)
	}
}

// faultEveryAttempt fails every attempt launched on `machine` (or everywhere
// when machine is -1) before `until` (sim.Forever for always).
type faultEveryAttempt struct {
	machine int
	until   sim.Time
}

func (f *faultEveryAttempt) AttemptFault(tk *task.Task, now sim.Time) (string, sim.Duration, bool) {
	if (f.machine < 0 || tk.Machine == f.machine) && now < f.until {
		return "test-injected fault", 0.1, true
	}
	return "", 0, false
}

// faultyDriver is monoDriver with a fault injector installed in the workers.
func faultyDriver(t *testing.T, n int, cfg Config, inj task.FaultInjector) (*Driver, *JobHandle) {
	t.Helper()
	c := testCluster(t, n)
	fs, _ := dfs.New(dfs.Config{Machines: n, DisksPerMachine: 1})
	g := core.NewGroup(c, core.Options{Faults: inj})
	execs := make([]task.Executor, n)
	for i, w := range g.Workers {
		execs[i] = w
	}
	d, err := NewWithConfig(c, fs, execs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 48, OpCPU: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return d, h
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
	// Machine 0 fails every attempt before t=2. After 2 failures it is
	// excluded for 5 s; after readmission (t >= exclusion start + 5, and the
	// fault window over) it must receive and complete tasks again.
	inj := &faultEveryAttempt{machine: 0, until: 2}
	c := testCluster(t, 3)
	fs, _ := dfs.New(dfs.Config{Machines: 3, DisksPerMachine: 1})
	g := core.NewGroup(c, core.Options{Faults: inj})
	execs := make([]task.Executor, 3)
	for i, w := range g.Workers {
		execs[i] = w
	}
	d, err := NewWithConfig(c, fs, execs, Config{ExcludeAfterFailures: 2, ExcludeBackoff: 5, MaxTaskFailures: 20})
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 64, OpCPU: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Probe while the engine runs: excluded soon after the failures, and no
	// longer excluded after the backoff expires.
	c.Engine.At(1, func() {
		if !d.Excluded(0) {
			t.Error("machine 0 not excluded after repeated failures")
		}
	})
	c.Engine.At(6.5, func() {
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
		if tm.Start > 0.2 && tm.Start < 5 {
			t.Fatalf("task %d started on excluded machine 0 at %v", i, tm.Start)
		}
		if tm.Start >= 5 {
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
	c, d := monoDriver(t, 2, Config{Speculation: true, SpeculationMultiplier: 1.5, SpeculationMinFraction: 0.5})
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
		c, d := monoDriver(t, 4, Config{FetchRetryTimeout: timeout, MaxTaskFailures: 50, ExcludeAfterFailures: 3, ExcludeBackoff: 5})
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
	// ExcludeBackoff again.
	c := testCluster(t, 2)
	d, _ := fakeDriver(t, c, 1, 1)
	base := d.cfg.ExcludeBackoff
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
	// The doubling cap is Config.MaxExcludeBackoff (it was a hidden i < 6
	// constant): growth stops at the largest doubled value not exceeding
	// the cap, and a cap below the base leaves the base untouched.
	c := testCluster(t, 2)
	d, _ := fakeDriver(t, c, 1, 1)
	d.cfg.ExcludeBackoff = 30
	d.cfg.MaxExcludeBackoff = 100
	d.excludeCount[1] = 5 // deep escalation history
	d.machineFailures[1] = d.cfg.ExcludeAfterFailures
	d.noteMachineFailure(1)
	if got := d.excludeUntil[1] - c.Engine.Now(); got != 60 {
		t.Fatalf("capped backoff = %v, want 60 (30 doubled once; 120 would exceed the 100 cap)", got)
	}
	d.excluded[1] = false
	d.cfg.MaxExcludeBackoff = 10 // below base: base wins
	d.machineFailures[1] = d.cfg.ExcludeAfterFailures
	d.noteMachineFailure(1)
	if got := d.excludeUntil[1] - c.Engine.Now(); got != 30 {
		t.Fatalf("sub-base cap gave backoff %v, want the 30 base", got)
	}
	// The default cap (64× base) reproduces the legacy six-doublings limit.
	cfg := Config{ExcludeBackoff: 30}.withDefaults()
	if cfg.MaxExcludeBackoff != 1920 {
		t.Fatalf("default MaxExcludeBackoff = %v, want 64×30 = 1920", cfg.MaxExcludeBackoff)
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
