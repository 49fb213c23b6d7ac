package run

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/sim"
	"repro/internal/task"
)

func cancelSpec(name string, tasks int) *task.JobSpec {
	return &task.JobSpec{Name: name, Stages: []*task.StageSpec{
		{ID: 0, Name: name + "-map", NumTasks: tasks, OpCPU: 2, ShuffleOutBytes: 64 << 20},
		{ID: 1, Name: name + "-reduce", NumTasks: tasks, OpCPU: 2, ParentIDs: []int{0}},
	}}
}

func TestJobsContextPreCancelled(t *testing.T) {
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms, err := JobsContext(ctx, c, fs, Options{Mode: Monotasks}, cancelSpec("pre", 8))
	if err == nil {
		t.Fatal("pre-cancelled context: want abort error, got nil")
	}
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("error %T is not *AbortError: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abort error does not unwrap to context.Canceled: %v", err)
	}
	// Partial results are still well-formed: one metrics record per job,
	// end-stamped no later than the abort time.
	if len(ms) != 1 {
		t.Fatalf("got %d partial metrics, want 1", len(ms))
	}
	if ms[0].End < ms[0].Start {
		t.Fatalf("aborted job has inverted span [%v, %v]", ms[0].Start, ms[0].End)
	}
	// Nothing ran: the context was dead before the first event.
	if got := c.Engine.Now(); got != 0 {
		t.Fatalf("virtual clock advanced to %v under a pre-cancelled context", got)
	}
}

func TestVirtualDeadlineAborts(t *testing.T) {
	// Measure the uninterrupted runtime first, then abort at half of it.
	full := cluster.MustNew(2, cluster.M2_4XLarge())
	fsFull, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
	ms, err := JobsContext(context.Background(), full, fsFull, Options{Mode: Monotasks}, cancelSpec("full", 16))
	if err != nil {
		t.Fatal(err)
	}
	fullEnd := ms[0].End
	if fullEnd <= 0 {
		t.Fatalf("uninterrupted run finished at t=%v", fullEnd)
	}

	deadline := fullEnd / 2
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
	ms, err = JobsContext(context.Background(), c, fs, Options{Mode: Monotasks, Deadline: deadline}, cancelSpec("full", 16))
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("want *AbortError at virtual deadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("virtual-deadline abort does not match context.DeadlineExceeded: %v", err)
	}
	if aerr.At < deadline {
		t.Fatalf("abort fired at t=%v, before the deadline %v", aerr.At, deadline)
	}
	if aerr.At >= fullEnd {
		t.Fatalf("abort fired at t=%v, after the job would have finished (%v)", aerr.At, fullEnd)
	}
	if len(ms) != 1 || ms[0].End != aerr.At {
		t.Fatalf("partial metrics not end-stamped at abort: got %+v, abort at %v", ms[0], aerr.At)
	}
}

// TestWallDeadlineAborts: a wall-clock bound is a context deadline, polled
// like any other cancellation.
func TestWallDeadlineAborts(t *testing.T) {
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := JobsContext(ctx, c, fs, Options{Mode: Monotasks}, cancelSpec("wall", 8))
	var aerr *AbortError
	if !errors.As(err, &aerr) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired wall deadline: want an *AbortError matching DeadlineExceeded, got %v", err)
	}
}

func TestJobsAtContextAborts(t *testing.T) {
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
	subs := []Submission{
		{Spec: cancelSpec("a", 8), At: 0},
		{Spec: cancelSpec("b", 8), At: 1},
	}
	handles, err := JobsAtContext(context.Background(), c, fs, Options{Mode: Monotasks, Deadline: sim.Time(0.001)}, subs)
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if len(handles) != 2 {
		t.Fatalf("got %d handles, want 2", len(handles))
	}
}

func TestJobsAtRejectsNegativeArrival(t *testing.T) {
	c := cluster.MustNew(1, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 1, DisksPerMachine: 2})
	_, err := JobsAtContext(context.Background(), c, fs, Options{Mode: Monotasks}, []Submission{
		{Spec: cancelSpec("late", 4), At: -1},
	})
	if err == nil {
		t.Fatal("negative arrival time accepted")
	}
	var aerr *AbortError
	if errors.As(err, &aerr) {
		t.Fatalf("validation failure surfaced as abort: %v", err)
	}
}

func TestJobsAtRejectsNilSpec(t *testing.T) {
	c := cluster.MustNew(1, cluster.M2_4XLarge())
	fs, _ := dfs.New(dfs.Config{Machines: 1, DisksPerMachine: 2})
	if _, err := JobsAtContext(context.Background(), c, fs, Options{Mode: Monotasks}, []Submission{{Spec: nil}}); err == nil {
		t.Fatal("nil submission spec accepted")
	}
}

// metricsFingerprint canonicalizes a run's metrics for byte-identity checks.
func metricsFingerprint(t *testing.T, ms []*task.JobMetrics) string {
	t.Helper()
	b, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAbortAtAnyDeadlineLeavesFreshRunsIdentical is the isolation property
// behind the what-if service's memoization contract: interleaving aborted
// runs (at a sweep of virtual deadlines) with fresh runs must leave every
// fresh run byte-identical to the golden uninterrupted run. An abort may not
// leak state — pooled events, scheduler residue, anything — into later runs.
func TestAbortAtAnyDeadlineLeavesFreshRunsIdentical(t *testing.T) {
	freshRun := func(deadline sim.Time) ([]*task.JobMetrics, error) {
		c := cluster.MustNew(2, cluster.M2_4XLarge())
		fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 2})
		o := Options{Mode: Monotasks, Deadline: deadline}
		return JobsContext(context.Background(), c, fs, o, cancelSpec("prop-a", 12), cancelSpec("prop-b", 12))
	}
	golden, err := freshRun(0)
	if err != nil {
		t.Fatal(err)
	}
	want := metricsFingerprint(t, golden)
	end := golden[1].End
	if end <= 0 {
		t.Fatalf("golden run empty: end=%v", end)
	}
	for i := 1; i <= 9; i++ {
		deadline := end * sim.Time(float64(i)/10)
		if _, aerr := freshRun(deadline); aerr == nil {
			t.Fatalf("deadline %v (< end %v) did not abort", deadline, end)
		}
		ms, err := freshRun(0)
		if err != nil {
			t.Fatalf("fresh run after abort at %v failed: %v", deadline, err)
		}
		if got := metricsFingerprint(t, ms); got != want {
			t.Fatalf("fresh run after abort at deadline %v diverged from golden", deadline)
		}
	}
}
