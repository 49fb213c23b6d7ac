package run

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/jobsched"
	"repro/internal/pipeexec"
	"repro/internal/task"
	"repro/internal/telemetry"
)

func TestModeStrings(t *testing.T) {
	if Monotasks.String() != "monospark" || Spark.String() != "spark" ||
		SparkWriteThrough.String() != "spark-flush" {
		t.Fatal("Mode.String broken")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestExecutorsMatchMode(t *testing.T) {
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	mono := Executors(c, Options{Mode: Monotasks})
	if len(mono) != 2 {
		t.Fatalf("%d executors, want 2", len(mono))
	}
	if _, ok := mono[0].(*core.Worker); !ok {
		t.Fatalf("monotasks mode built %T", mono[0])
	}
	c2 := cluster.MustNew(2, cluster.M2_4XLarge())
	spark := Executors(c2, Options{Mode: Spark})
	if _, ok := spark[0].(*pipeexec.Worker); !ok {
		t.Fatalf("spark mode built %T", spark[0])
	}
}

func TestTasksPerMachineOverride(t *testing.T) {
	c := cluster.MustNew(1, cluster.M2_4XLarge())
	ex := Executors(c, Options{Mode: Spark, TasksPerMachine: 3})
	if got := ex[0].MaxConcurrentTasks(); got != 3 {
		t.Fatalf("slots = %d, want 3", got)
	}
	c2 := cluster.MustNew(1, cluster.M2_4XLarge())
	ex2 := Executors(c2, Options{Mode: Monotasks, TasksPerMachine: 3})
	if got := ex2[0].MaxConcurrentTasks(); got == 3 {
		t.Fatal("monotasks mode must ignore the slot override (§7)")
	}
}

func TestJobsRunsConcurrently(t *testing.T) {
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
	mk := func(name string) *task.JobSpec {
		return &task.JobSpec{Name: name, Stages: []*task.StageSpec{
			{ID: 0, Name: name, NumTasks: 8, OpCPU: 1},
		}}
	}
	ms, err := JobsContext(context.Background(), c, fs, Options{Mode: Monotasks}, mk("a"), mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("%d results, want 2", len(ms))
	}
	// Concurrent jobs overlap: both start at 0.
	if ms[0].Start != 0 || ms[1].Start != 0 {
		t.Fatalf("jobs started at %v, %v; want both 0 (submitted together)", ms[0].Start, ms[1].Start)
	}
}

func TestJobsAtHonoursArrivalSchedule(t *testing.T) {
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
	mk := func(name string) *task.JobSpec {
		return &task.JobSpec{Name: name, Stages: []*task.StageSpec{
			{ID: 0, Name: name, NumTasks: 8, OpCPU: 1},
		}}
	}
	o := Options{Mode: Monotasks, Sched: jobsched.Config{
		Pools: []jobsched.PoolConfig{{Name: "p", Weight: 2}},
	}}
	hs, err := JobsAtContext(context.Background(), c, fs, o, []Submission{
		{Spec: mk("a"), At: 0, Opts: jobsched.SubmitOptions{Pool: "p"}},
		{Spec: mk("b"), At: 0.5},
		{Spec: mk("c"), At: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 3 {
		t.Fatalf("%d handles, want 3", len(hs))
	}
	wantArrivals := []float64{0, 0.5, 2}
	for i, h := range hs {
		if err := h.Err(); err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
		if got := float64(h.Submitted); got != wantArrivals[i] {
			t.Fatalf("job %d submitted at %v, want %v", i, got, wantArrivals[i])
		}
		if h.Metrics.Start < h.Submitted {
			t.Fatalf("job %d started before it arrived", i)
		}
	}
}

func TestJobsAtRejectsUndeclaredPool(t *testing.T) {
	c := cluster.MustNew(1, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 1, DisksPerMachine: 2})
	spec := &task.JobSpec{Name: "x", Stages: []*task.StageSpec{
		{ID: 0, Name: "x", NumTasks: 2, OpCPU: 1},
	}}
	_, err := JobsAtContext(context.Background(), c, fs, Options{Mode: Monotasks}, []Submission{
		{Spec: spec, At: 0, Opts: jobsched.SubmitOptions{Pool: "ghost"}},
	})
	if err == nil {
		t.Fatal("submission to undeclared pool accepted")
	}
}

func TestJobsRejectsInvalidSpec(t *testing.T) {
	c := cluster.MustNew(1, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 1, DisksPerMachine: 2})
	if _, err := JobsContext(context.Background(), c, fs, Options{}, &task.JobSpec{Name: "bad"}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestWriteThroughModeForcesWriteback(t *testing.T) {
	// The flush mode must make a write-heavy job pay for its writes.
	mkJob := func() *task.JobSpec {
		return &task.JobSpec{Name: "w", Stages: []*task.StageSpec{
			{ID: 0, Name: "w", NumTasks: 8, OpCPU: 0.1, OutputBytes: 500e6},
		}}
	}
	durations := map[Mode]float64{}
	for _, m := range []Mode{Spark, SparkWriteThrough} {
		c := cluster.MustNew(1, cluster.M2_4XLarge())
		fs, _ := dfs.New(dfs.Config{Machines: 1, DisksPerMachine: 2})
		ms, err := JobsContext(context.Background(), c, fs, Options{Mode: m}, mkJob())
		if err != nil {
			t.Fatal(err)
		}
		durations[m] = float64(ms[0].Duration())
	}
	if durations[SparkWriteThrough] <= durations[Spark] {
		t.Fatalf("flush mode %v ≤ buffered mode %v", durations[SparkWriteThrough], durations[Spark])
	}
}

// TestTelemetryRefusesStoppedTimelines: a telemetry sampler reads the
// device timelines, so a run asked for one on a cluster whose timelines are
// stopped fails before it starts, both with jobs submitted together and on
// an arrival schedule. Without telemetry the same cluster runs.
func TestTelemetryRefusesStoppedTimelines(t *testing.T) {
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	c.StopTimelines()
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
	spec := &task.JobSpec{Name: "j", Stages: []*task.StageSpec{{ID: 0, Name: "j", NumTasks: 4, OpCPU: 1}}}
	o := Options{Mode: Monotasks, Telemetry: &telemetry.Config{}}
	if _, err := JobsContext(context.Background(), c, fs, o, spec); !errors.Is(err, errTelemetryStopped) {
		t.Errorf("JobsContext with telemetry on a stopped cluster: err %v, want %v", err, errTelemetryStopped)
	}
	if _, err := JobsAtContext(context.Background(), c, fs, o, []Submission{{Spec: spec}}); !errors.Is(err, errTelemetryStopped) {
		t.Errorf("JobsAtContext with telemetry on a stopped cluster: err %v, want %v", err, errTelemetryStopped)
	}
	o.Telemetry = nil
	ms, err := JobsContext(context.Background(), c, fs, o, spec)
	if err != nil || len(ms) != 1 || ms[0].Duration() <= 0 {
		t.Fatalf("run without telemetry on a stopped cluster: %v, %v", ms, err)
	}
	if n := c.Machines[0].CPU.Util.Len(); n != 0 {
		t.Errorf("stopped CPU timeline recorded %d points", n)
	}
}
