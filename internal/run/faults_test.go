package run

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/faults"
	"repro/internal/task"
)

const crashAt = 2.5

// wiredInjector slows machine 2, kills two attempts on machine 0 and crashes
// machine 1, all while cancelSpec's map stage is running.
func wiredInjector(t *testing.T, c *cluster.Cluster) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(c, faults.Plan{Seed: 3, Events: []faults.Event{
		{At: 1, Kind: faults.MachineSlowdown, Machine: 2, Factor: 0.5, Duration: 3},
		{At: 1.5, Kind: faults.TaskKill, Machine: 0, Count: 2, Reason: "test kill"},
		{At: crashAt, Kind: faults.MachineCrash, Machine: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// checkPlanFired asserts that every scheduled fault fired and that the
// crashed machine's work finished elsewhere.
func checkPlanFired(t *testing.T, inj *faults.Injector, jm *task.JobMetrics) {
	t.Helper()
	fired := map[faults.Kind]string{}
	for _, r := range inj.Log() {
		fired[r.Kind] = r.Detail
	}
	for _, k := range []faults.Kind{faults.MachineSlowdown, faults.TaskKill, faults.MachineCrash} {
		if _, ok := fired[k]; !ok {
			t.Fatalf("%v never fired; log: %v", k, inj.Log())
		}
	}
	if strings.HasPrefix(fired[faults.TaskKill], "killed 0 ") {
		t.Fatalf("task kill found nothing running: %s", fired[faults.TaskKill])
	}
	rescheduled := 0
	for _, st := range jm.Stages {
		for _, tm := range st.Tasks {
			if tm == nil {
				t.Fatalf("stage %s has an unfinished task", st.Spec.Name)
			}
			if tm.Machine == 1 && tm.End > crashAt {
				t.Fatalf("task %d of stage %s finished on the crashed machine at t=%v", tm.Index, st.Spec.Name, tm.End)
			}
			if tm.Machine != 1 && tm.End > crashAt {
				rescheduled++
			}
		}
	}
	if rescheduled == 0 {
		t.Fatal("no task finished after the crash")
	}
}

func faultCluster(t *testing.T) (*cluster.Cluster, *dfs.FS) {
	t.Helper()
	c := cluster.MustNew(3, cluster.M2_4XLarge())
	fs, err := dfs.New(dfs.Config{Machines: 3, DisksPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c, fs
}

// TestFaultPlanFiresThroughJobs: an injector passed as Options.Faults is
// installed and bound by the run, so its scheduled crash, slowdown and task
// kill fire — not only its probability windows.
func TestFaultPlanFiresThroughJobs(t *testing.T) {
	c, fs := faultCluster(t)
	inj := wiredInjector(t, c)
	ms, err := JobsContext(context.Background(), c, fs, Options{Mode: Monotasks, Faults: inj}, cancelSpec("faulted", 48))
	if err != nil {
		t.Fatal(err)
	}
	checkPlanFired(t, inj, ms[0])
}

func TestFaultPlanFiresThroughJobsAt(t *testing.T) {
	c, fs := faultCluster(t)
	inj := wiredInjector(t, c)
	hs, err := JobsAtContext(context.Background(), c, fs, Options{Mode: Monotasks, Faults: inj},
		[]Submission{{Spec: cancelSpec("faulted", 48), At: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if err := hs[0].Err(); err != nil {
		t.Fatal(err)
	}
	checkPlanFired(t, inj, hs[0].Metrics)
}

// TestFaultPlanInEnginePastIsAnError: a plan whose events the engine has
// already passed cannot be scheduled; the run reports it instead of
// panicking inside the engine.
func TestFaultPlanInEnginePastIsAnError(t *testing.T) {
	c, fs := faultCluster(t)
	c.Engine.At(5, func() {})
	c.Engine.Run()
	inj := wiredInjector(t, c)
	_, err := JobsContext(context.Background(), c, fs, Options{Mode: Monotasks, Faults: inj}, cancelSpec("late", 4))
	if err == nil || !strings.Contains(err.Error(), "before the engine clock") {
		t.Fatalf("want a past-plan error, got %v", err)
	}
	var aerr *AbortError
	if errors.As(err, &aerr) {
		t.Fatalf("past-plan error surfaced as an abort: %v", err)
	}
	if _, err := DriverWith(c, fs, Executors(c, Options{Mode: Spark}), Options{Faults: inj}); err == nil {
		t.Fatal("DriverWith accepted a plan in the engine's past")
	}
	// Once installed, later drivers on the same engine reuse the plan
	// instead of rescheduling it, so the clock no longer matters.
	c2, fs2 := faultCluster(t)
	o := Options{Mode: Monotasks, Faults: wiredInjector(t, c2)}
	execs := Executors(c2, o)
	for i := 0; i < 2; i++ {
		d, err := DriverWith(c2, fs2, execs, o)
		if err != nil {
			t.Fatalf("driver %d: %v", i, err)
		}
		if _, err := d.Submit(cancelSpec("again", 48)); err != nil {
			t.Fatal(err)
		}
		d.Run()
	}
	if n := len(o.Faults.Log()); n != 4 {
		t.Fatalf("plan fired %d records over two drivers, want 4 (slowdown, restore, kill, crash) once each: %v", n, o.Faults.Log())
	}
}

// TestDriverDecidesAttemptFaults: executors built without the injector still
// see its probability windows, because the driver DriverWith binds decides
// every attempt before handing it to an executor. A probability-1
// disk-error window on machine 0 fails every attempt there that writes its
// map output to disk, in both executor modes.
func TestDriverDecidesAttemptFaults(t *testing.T) {
	for _, m := range []Mode{Monotasks, Spark} {
		c, fs := faultCluster(t)
		inj, err := faults.NewInjector(c, faults.Plan{Seed: 1, Events: []faults.Event{
			{Kind: faults.DiskErrorWindow, Machine: 0, Prob: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		d, err := DriverWith(c, fs, Executors(c, Options{Mode: m}), Options{Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		h, err := d.Submit(cancelSpec("windowed", 24))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		failed := 0
		for _, r := range inj.Log() {
			if r.Kind != faults.DiskErrorWindow || !strings.HasPrefix(r.Detail, "failed attempt") {
				continue
			}
			if r.Machine != 0 {
				t.Fatalf("%v: an attempt failed on machine %d, outside the window: %v", m, r.Machine, r)
			}
			failed++
		}
		if failed == 0 {
			t.Fatalf("%v: no attempt on machine 0 failed in its disk-error window; log: %v", m, inj.Log())
		}
		for _, tm := range h.Metrics.Stages[0].Tasks {
			if tm.Machine == 0 {
				t.Fatalf("%v: map task %d succeeded on machine 0 inside a probability-1 disk-error window", m, tm.Index)
			}
		}
	}
}
