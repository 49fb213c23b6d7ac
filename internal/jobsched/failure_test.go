package jobsched

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
)

// testSpec builds a clean-arithmetic machine spec for failure tests.
func testSpec(cores, disks int) cluster.MachineSpec {
	ds := make([]resource.DiskSpec, disks)
	for i := range ds {
		ds[i] = resource.DiskSpec{Kind: resource.HDD, SeqBW: 100e6, ContentionAlpha: 0.35}
	}
	return cluster.MachineSpec{Cores: cores, Disks: ds, NetBW: 100e6, MemBytes: 1 << 30}
}

// monoDriver builds a monotasks driver over n test machines.
func monoDriver(t *testing.T, n int, cfg Config) (*cluster.Cluster, *Driver) {
	t.Helper()
	c := testCluster(t, n)
	fs, _ := dfs.New(dfs.Config{Machines: n, DisksPerMachine: 1})
	g := core.NewGroup(c, core.Options{})
	execs := make([]task.Executor, n)
	for i, w := range g.Workers {
		execs[i] = w
	}
	d, err := NewWithConfig(c, fs, execs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func mapReduceJob(maps, reduces int) *task.JobSpec {
	return &task.JobSpec{Name: "mr", Stages: []*task.StageSpec{
		{ID: 0, Name: "map", NumTasks: maps, OpCPU: 1, ShuffleOutBytes: 20e6},
		// A long reduce keeps the job mid-shuffle when the test injects the
		// failure.
		{ID: 1, Name: "reduce", NumTasks: reduces, OpCPU: 5, ParentIDs: []int{0}, OutputBytes: 10e6},
	}}
}

func TestFailureDuringStageRetriesTasks(t *testing.T) {
	c, d := monoDriver(t, 4, Config{})
	h, err := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 32, OpCPU: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.Engine.At(1, func() {
		if err := d.FailMachine(3); err != nil {
			t.Error(err)
		}
	})
	ms := d.Run()
	if !h.Done() {
		t.Fatal("job did not complete after failure")
	}
	// Every task index must have metrics, and none from the dead machine's
	// discarded attempts.
	for i, tm := range ms[0].Stages[0].Tasks {
		if tm == nil {
			t.Fatalf("task %d has no result", i)
		}
		if tm.Machine == 3 && tm.End > 1 {
			t.Fatalf("task %d credited to dead machine at %v", i, tm.End)
		}
	}
}

func TestFailureLosesShuffleOutputAndRerunsMaps(t *testing.T) {
	c, d := monoDriver(t, 4, Config{})
	h, err := d.Submit(mapReduceJob(16, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Fail machine 2 well into the reduce stage: its map outputs are gone,
	// so those map tasks must re-run before the reduce can finish.
	failed := false
	c.Engine.At(4, func() {
		failed = true
		if err := d.FailMachine(2); err != nil {
			t.Error(err)
		}
	})
	ms := d.Run()
	if !failed || !h.Done() {
		t.Fatal("job did not complete after mid-reduce failure")
	}
	// Some map task must have been re-executed after the failure.
	reran := false
	for _, tm := range ms[0].Stages[0].Tasks {
		if tm.Start >= 4 {
			reran = true
			if tm.Machine == 2 {
				t.Fatal("re-executed map placed on the dead machine")
			}
		}
	}
	if !reran {
		t.Fatal("no map task re-executed despite lost shuffle output")
	}
	// The reduce stage must finish after the re-executions.
	if ms[0].Stages[1].End <= 4 {
		t.Fatal("reduce finished before the failure it depends on was repaired")
	}
}

func TestFailureAfterJobDoneIsHarmless(t *testing.T) {
	c, d := monoDriver(t, 2, Config{})
	h, _ := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 4, OpCPU: 0.5},
	}})
	c.Engine.At(100, func() {
		if err := d.FailMachine(0); err != nil {
			t.Error(err)
		}
	})
	d.Run()
	if !h.Done() {
		t.Fatal("job incomplete")
	}
}

func TestFailMachineValidation(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	if err := d.FailMachine(9); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
	if err := d.FailMachine(1); err != nil {
		t.Fatal(err)
	}
	if err := d.FailMachine(1); err != nil {
		t.Fatal("double failure should be a no-op, not an error")
	}
}

// stragglerDriver builds a monotasks driver over four 4-core machines, the
// last at 20% speed.
func stragglerDriver(t *testing.T, cfg Config) *Driver {
	t.Helper()
	specs := []cluster.MachineSpec{
		testSpec(4, 1), testSpec(4, 1), testSpec(4, 1), testSpec(4, 1).Degraded(0.2),
	}
	c, err := cluster.NewHetero(specs)
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := dfs.New(dfs.Config{Machines: 4, DisksPerMachine: 1})
	g := core.NewGroup(c, core.Options{})
	execs := make([]task.Executor, 4)
	for i, w := range g.Workers {
		execs[i] = w
	}
	d, err := NewWithConfig(c, fs, execs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	// One machine at 20% speed. Without speculation the stage waits for its
	// crawling tasks; with it, backups on fast machines win.
	runJob := func(speculate bool) sim.Time {
		d := stragglerDriver(t, Config{Speculation: speculate})
		h, _ := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
			{ID: 0, Name: "cpu", NumTasks: 64, OpCPU: 2},
		}})
		d.Run()
		if !h.Done() {
			t.Fatal("job incomplete")
		}
		return h.Metrics.Duration()
	}
	plain := runJob(false)
	spec := runJob(true)
	if spec >= plain {
		t.Fatalf("speculation did not help: %v ≥ %v", spec, plain)
	}
}

func TestSpeculationDisabledByDefault(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	if d.cfg.Speculation {
		t.Fatal("speculation should default off")
	}
}

func TestSpeculativeWinnerCountsOnce(t *testing.T) {
	// Speculation on a cluster with a straggler launches backups; each
	// task must still count one winning attempt, so no stage over-counts its
	// completions and no live-attempt count is left behind.
	d := stragglerDriver(t, Config{Speculation: true})
	h, _ := d.Submit(&task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "cpu", NumTasks: 64, OpCPU: 2, ShuffleOutBytes: 1e6},
		{ID: 1, Name: "next", NumTasks: 6, OpCPU: 1, ParentIDs: []int{0}},
	}})
	ms := d.Run()
	if !h.Done() {
		t.Fatal("job incomplete under speculation")
	}
	backups := 0
	for si, st := range h.stages {
		if st.completed != st.spec.NumTasks || len(st.durations) != st.spec.NumTasks || st.running != 0 {
			t.Fatalf("stage %d: %d completions, %d durations and %d live attempts for %d tasks",
				si, st.completed, len(st.durations), st.running, st.spec.NumTasks)
		}
		for ti, atts := range st.attempts {
			if len(atts) >= 2 {
				backups++
			}
			if ms[0].Stages[si].Tasks[ti] == nil {
				t.Fatalf("stage %d task %d missing metrics", si, ti)
			}
		}
	}
	if backups == 0 {
		t.Fatal("no backup attempt launched for the straggler's tasks")
	}
	if h.running != 0 {
		t.Fatalf("job counts %d live attempts after finishing", h.running)
	}
}

func TestFailureDuringMapStageDoesNotDeadlockChildren(t *testing.T) {
	// Regression: a failure while the parent stage is still running must
	// not double-block the child (the parent never unblocked it yet).
	c, d := monoDriver(t, 4, Config{})
	h, err := d.Submit(mapReduceJob(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Fail while maps are clearly still running.
	c.Engine.At(0.5, func() {
		if err := d.FailMachine(1); err != nil {
			t.Error(err)
		}
	})
	d.Run()
	if !h.Done() {
		t.Fatal("job deadlocked after a mid-map failure")
	}
}

func TestRepeatedFailures(t *testing.T) {
	// Losing two of four machines, at different phases, must still finish.
	c, d := monoDriver(t, 4, Config{})
	h, err := d.Submit(mapReduceJob(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	c.Engine.At(0.5, func() { _ = d.FailMachine(3) })
	c.Engine.At(6, func() { _ = d.FailMachine(2) })
	d.Run()
	if !h.Done() {
		t.Fatal("job did not survive two failures")
	}
	// Surviving machines only.
	for _, st := range h.Metrics.Stages {
		for i, tm := range st.Tasks {
			if tm == nil {
				t.Fatalf("task %d missing", i)
			}
			if tm.Machine >= 2 && tm.End > 6 {
				t.Fatalf("final attempt of task %d credited to failed machine %d", i, tm.Machine)
			}
		}
	}
}

// TestFinishedJobsLeaveNoShuffleOutputs: a long-lived driver drops a job's
// map outputs from the shuffle tracker once the job finishes or aborts, so
// the tracker holds only live jobs' stages however long the stream runs.
func TestFinishedJobsLeaveNoShuffleOutputs(t *testing.T) {
	c, d := monoDriver(t, 3, Config{})
	var hs []*JobHandle
	for i := 0; i < 6; i++ {
		c.Engine.At(sim.Time(i), func() {
			h, err := d.Submit(mapReduceJob(6, 3))
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		})
	}
	held := func(h *JobHandle, stage int) bool {
		_, err := d.tracker.FetchesFor([]int{h.base + stage}, 0, 1)
		return err == nil
	}
	aborted := false
	for c.Engine.Step() {
		for _, h := range hs {
			if !h.finished() && h.stages[1].started && !held(h, 0) {
				t.Fatalf("t=%v: running job %d lost its map outputs", c.Engine.Now(), h.seq)
			}
		}
		if !aborted && len(hs) == 6 && hs[4].stages[1].started {
			d.abortJob(hs[4], fmt.Errorf("test abort"))
			aborted = true
		}
	}
	d.Run()
	if !aborted {
		t.Fatal("job 4 never reached its reduce stage")
	}
	for _, h := range hs {
		if !h.finished() {
			t.Fatalf("job %d unfinished", h.seq)
		}
		for i := range h.stages {
			if held(h, i) {
				t.Fatalf("finished job %d (failed=%v) still holds stage %d's map outputs", h.seq, h.Failed(), i)
			}
		}
	}
}
