package jobsched_test

// Driver hot-path benchmarks: the steady-state cost of pushing repeated
// identical jobs through one long-lived driver and the pure control-plane
// cost of a submission, plus the allocation guard on that submission cost.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/jobsched"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/workloads"
)

// steadySpec builds the small sort every iteration replays.
func steadySpec(tb testing.TB, c *cluster.Cluster) (*workloads.Env, *task.JobSpec) {
	env, err := workloads.NewEnv(c)
	if err != nil {
		tb.Fatal(err)
	}
	s := workloads.Sort{Name: "steady", TotalBytes: 1 * units.GB, MapTasks: 8, ReduceTasks: 4}
	spec, err := s.Build(env)
	if err != nil {
		tb.Fatal(err)
	}
	return env, spec
}

// BenchmarkMultiJobSteadyState measures one long-lived monotasks driver
// absorbing repeated identical job submissions through its default
// fair-share pool: submit, run to completion, repeat — the steady-state
// multi-tenant hot path.
func BenchmarkMultiJobSteadyState(b *testing.B) {
	c, err := cluster.New(2, cluster.M2_4XLarge())
	if err != nil {
		b.Fatal(err)
	}
	env, spec := steadySpec(b, c)
	d, err := run.Driver(c, env.FS, run.Options{Mode: run.Monotasks})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := d.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		c.Engine.Run()
		if !h.Done() {
			b.Fatalf("iteration %d: job did not complete: %v", i, h.Err())
		}
	}
}

// idleExec is an executor that never runs anything: zero capacity, so
// submissions exercise only the driver's control plane (validation,
// stage-state instantiation, pool admission) and no task ever launches.
type idleExec struct{ id int }

func (e idleExec) MachineID() int          { return e.id }
func (e idleExec) MaxConcurrentTasks() int { return 0 }
func (e idleExec) Launch(t *task.Task, done func(*task.TaskMetrics)) {
	panic("jobsched_test: idleExec launched a task")
}

// submitDriver builds the zero-capacity driver BenchmarkDriverSubmit and
// TestSubmitSustains100kJobs share: submissions exercise only the control
// plane.
func submitDriver(tb testing.TB) (*jobsched.Driver, *task.JobSpec) {
	c, err := cluster.New(2, cluster.M2_4XLarge())
	if err != nil {
		tb.Fatal(err)
	}
	env, spec := steadySpec(tb, c)
	execs := make([]task.Executor, c.Size())
	for i := range execs {
		execs[i] = idleExec{id: i}
	}
	d, err := jobsched.New(c, env.FS, execs)
	if err != nil {
		tb.Fatal(err)
	}
	return d, spec
}

// BenchmarkDriverSubmit measures the allocation cost of Submit alone:
// identical jobs into a zero-capacity cluster, so each op is exactly one
// control-plane instantiation.
func BenchmarkDriverSubmit(b *testing.B) {
	d, spec := submitDriver(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// maxSubmitAllocs bounds the heap allocations of one Submit. A submit
// measures 12.001 allocations over 100k jobs, so one extra allocation per
// submit fails the bound.
const maxSubmitAllocs = 13

// TestSubmitSustains100kJobs is the submission-scale and allocation guard:
// one driver absorbs 100k concurrent job submissions (none complete, since
// the executors have zero capacity, so all 100k are live at once) and the
// mean allocations per submit stay at or below maxSubmitAllocs.
func TestSubmitSustains100kJobs(t *testing.T) {
	d, spec := submitDriver(t)
	// Warm the admission structures off the books.
	if _, err := d.Submit(spec); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const jobs = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		if _, err := d.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / jobs
	if per > maxSubmitAllocs {
		t.Fatalf("submit cost %.3f allocs/op with 100k concurrent jobs, want ≤ %d", per, maxSubmitAllocs)
	}
}
