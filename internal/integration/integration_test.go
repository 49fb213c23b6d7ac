// Package integration exercises the whole stack — workloads, driver, both
// executors, device models — and asserts the qualitative results the paper
// reports. These are the end-to-end guarantees the figure harness builds on.
package integration

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/workloads"
)

// runSort executes a sort workload and returns its metrics plus the cluster.
func runSort(t *testing.T, machines int, spec cluster.MachineSpec, mode run.Mode, s workloads.Sort) (*cluster.Cluster, *task.JobMetrics) {
	t.Helper()
	c := cluster.MustNew(machines, spec)
	env := workloads.MustEnv(c)
	job, err := s.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := run.JobsContext(context.Background(), c, env.FS, run.Options{Mode: mode}, job)
	if err != nil {
		t.Fatal(err)
	}
	return c, ms[0]
}

func TestMonoSparkBeatsSparkOnSort(t *testing.T) {
	// §5.2: MonoSpark's per-resource schedulers avoid seek contention and
	// buffer-cache churn, beating Spark on the disk-heavy sort.
	s := workloads.Sort{TotalBytes: 60 * units.GB, ValuesPerKey: 10}
	_, spark := runSort(t, 5, cluster.M2_4XLarge(), run.Spark, s)
	_, mono := runSort(t, 5, cluster.M2_4XLarge(), run.Monotasks, s)
	if mono.Duration() >= spark.Duration() {
		t.Fatalf("mono %v ≥ spark %v on sort; §5.2 relationship broken",
			mono.Duration(), spark.Duration())
	}
}

func TestSparkFlushSlowerThanSpark(t *testing.T) {
	// Fig. 5: forcing Spark to pay for its writes slows it down.
	s := workloads.Sort{TotalBytes: 30 * units.GB, ValuesPerKey: 10}
	_, spark := runSort(t, 5, cluster.M2_4XLarge(), run.Spark, s)
	_, flush := runSort(t, 5, cluster.M2_4XLarge(), run.SparkWriteThrough, s)
	if flush.Duration() <= spark.Duration() {
		t.Fatalf("flushed spark %v ≤ spark %v; buffer-cache advantage missing",
			flush.Duration(), spark.Duration())
	}
}

func TestMonoRuntimeNearIdealOnDiskBoundStage(t *testing.T) {
	// The §6.1 model: a disk-bound map stage's runtime should approach its
	// ideal disk time (sum of bytes / aggregate bandwidth).
	s := workloads.Sort{TotalBytes: 60 * units.GB, ValuesPerKey: 50}
	c, mono := runSort(t, 5, cluster.M2_4XLarge(), run.Monotasks, s)
	p := model.FromMetrics(mono, model.ClusterResources(c))
	st := p.Stages[0]
	ideal := st.ModelTime(model.ClusterResources(c), nil)
	if st.ActualSeconds < ideal {
		t.Fatalf("actual %v below ideal %v: model denominators wrong", st.ActualSeconds, ideal)
	}
	if st.ActualSeconds > 1.6*ideal {
		t.Fatalf("map stage %.1fs vs ideal %.1fs: > 60%% overhead", st.ActualSeconds, ideal)
	}
}

func TestDiskRemovalPredictionAccuracy(t *testing.T) {
	// Fig. 12's mechanism end to end: predict halving disk bandwidth from a
	// 2-HDD run, then measure a 1-HDD run.
	s := workloads.Sort{TotalBytes: 30 * units.GB, ValuesPerKey: 50}
	c2, base := runSort(t, 5, cluster.M2_4XLarge(), run.Monotasks, s)
	profile := model.FromMetrics(base, model.ClusterResources(c2))
	pred := model.Predict(profile, model.ScaleDiskBW(0.5))

	one := cluster.M2_4XLarge()
	one.Disks = one.Disks[:1]
	_, after := runSort(t, 5, one, run.Monotasks, s)
	actual := float64(after.Duration())
	err := (pred.PredictedSeconds - actual) / actual
	if err < -0.3 || err > 0.3 {
		t.Fatalf("prediction error %.1f%% exceeds 30%%", err*100)
	}
}

func TestMonotaskMetricsConserveWorkloadVolumes(t *testing.T) {
	// Every byte the workload specifies must appear in monotask metrics:
	// input reads, shuffle writes, shuffle reads, output writes.
	s := workloads.Sort{TotalBytes: 10 * units.GB, ValuesPerKey: 10}
	c, mono := runSort(t, 4, cluster.M2_4XLarge(), run.Monotasks, s)
	_ = c
	mapStage, reduceStage := mono.Stages[0], mono.Stages[1]
	total := int64(10 * units.GB)
	slack := total / 100 // integer division across tasks
	checks := []struct {
		name string
		got  int64
	}{
		{"input reads", mapStage.MonotaskBytes(task.DiskResource, task.KindInputRead)},
		{"shuffle writes", mapStage.MonotaskBytes(task.DiskResource, task.KindShuffleWrite)},
		{"output writes", reduceStage.MonotaskBytes(task.DiskResource, task.KindOutputWrite)},
	}
	for _, ck := range checks {
		if ck.got < total-slack || ck.got > total+slack {
			t.Errorf("%s moved %d bytes, want ≈%d", ck.name, ck.got, total)
		}
	}
	// Shuffle reads split between local disk reads and remote serves + net.
	shuffleReads := reduceStage.MonotaskBytes(task.DiskResource, task.KindShuffleServeRead)
	if shuffleReads < total-slack {
		t.Errorf("shuffle reads moved %d bytes, want ≈%d", shuffleReads, total)
	}
	netBytes := reduceStage.MonotaskBytes(task.NetworkResource, task.KindNetFetch)
	// 3 of 4 machines' data is remote.
	if netBytes < total/2 {
		t.Errorf("network moved %d bytes, want ≥ %d (≈3/4 of shuffle)", netBytes, total/2)
	}
}

func TestBDBMonoWithinPaperEnvelope(t *testing.T) {
	// Fig. 5's envelope, judged by the figure's own verdict on cells run
	// here directly: MonoSpark within −30%…+10% of Spark for every query
	// except q1c (large output), which may be up to 60% slower.
	var r figures.Fig05Result
	for _, q := range workloads.BDBQueryNames() {
		var dur [2]sim.Duration
		for i, mode := range []run.Mode{run.Spark, run.Monotasks} {
			c := cluster.MustNew(5, cluster.M2_4XLarge())
			env := workloads.MustEnv(c)
			job, err := workloads.BDBQuery(q, env)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := run.JobsContext(context.Background(), c, env.FS, run.Options{Mode: mode}, job)
			if err != nil {
				t.Fatal(err)
			}
			dur[i] = ms[0].Duration()
		}
		r.Rows = append(r.Rows, figures.Fig05Row{Query: q, Spark: dur[0], MonoSpark: dur[1]})
	}
	if err := r.Verify(); err != nil {
		t.Error(err)
	}
}

func TestMLWorkloadParity(t *testing.T) {
	// Fig. 7: the in-memory, network-heavy ML workload runs on par, judged
	// by the figure's own verdict (every stage and the whole job) on cells
	// run here directly.
	var jobs [2]*task.JobMetrics
	for i, mode := range []run.Mode{run.Spark, run.Monotasks} {
		c := cluster.MustNew(15, cluster.I2_2XLarge(2))
		env := workloads.MustEnv(c)
		job, err := workloads.LeastSquares{}.Build(env)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := run.JobsContext(context.Background(), c, env.FS, run.Options{Mode: mode}, job)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = ms[0]
	}
	if err := figures.Fig07FromJobs(jobs[0], jobs[1]).Verify(); err != nil {
		t.Error(err)
	}
}

func TestUtilizationOscillatesUnderSparkOnly(t *testing.T) {
	// Fig. 2 vs Fig. 9: Spark's map-stage utilization swings between CPU
	// and disk; MonoSpark keeps the bottleneck busier.
	s := workloads.Sort{TotalBytes: 60 * units.GB, ValuesPerKey: 10}
	cS, sparkM := runSort(t, 5, cluster.M2_4XLarge(), run.Spark, s)
	cM, monoM := runSort(t, 5, cluster.M2_4XLarge(), run.Monotasks, s)
	stS, stM := sparkM.Stages[0], monoM.Stages[0]
	mean := func(xs []float64) float64 {
		var sum float64
		for _, v := range xs {
			sum += v
		}
		return sum / float64(len(xs))
	}
	sparkDisk := mean(metrics.UtilSamples(cS, metrics.Disk, stS.Start, stS.End, 20))
	monoDisk := mean(metrics.UtilSamples(cM, metrics.Disk, stM.Start, stM.End, 20))
	if monoDisk <= sparkDisk-0.05 {
		t.Fatalf("mono disk util %.2f well below spark %.2f on a disk-bound stage", monoDisk, sparkDisk)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	runOnce := func() float64 {
		s := workloads.Sort{TotalBytes: 20 * units.GB, ValuesPerKey: 10}
		_, m := runSort(t, 4, cluster.M2_4XLarge(), run.Monotasks, s)
		return float64(m.Duration())
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("end-to-end nondeterminism: %v vs %v", a, b)
	}
}

func TestFailureRecoveryEndToEnd(t *testing.T) {
	// A full sort with replicated input survives losing a machine mid-run
	// under both executors, and the answer-bearing metrics stay complete.
	for _, mode := range []run.Mode{run.Monotasks, run.Spark} {
		c := cluster.MustNew(5, cluster.M2_4XLarge())
		env := workloads.MustEnv(c)
		job, err := workloads.Sort{TotalBytes: 30 * units.GB, ValuesPerKey: 25, InputReplication: 2}.Build(env)
		if err != nil {
			t.Fatal(err)
		}
		d, err := run.Driver(c, env.FS, run.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		h, err := d.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		c.Engine.At(20, func() {
			if err := d.FailMachine(1); err != nil {
				t.Error(err)
			}
		})
		ms := d.Run()
		if !h.Done() {
			t.Fatalf("%v: job incomplete after failure", mode)
		}
		for si, st := range ms[0].Stages {
			for ti, tm := range st.Tasks {
				if tm == nil {
					t.Fatalf("%v: stage %d task %d missing metrics", mode, si, ti)
				}
			}
		}
	}
}

func TestConcurrentJobsWithFailure(t *testing.T) {
	// Two concurrent jobs; a failure mid-run must not cross-contaminate
	// their recovery.
	c := cluster.MustNew(4, cluster.M2_4XLarge())
	env := workloads.MustEnv(c)
	jobA, _ := workloads.Sort{Name: "a", TotalBytes: 20 * units.GB, ValuesPerKey: 10, InputReplication: 2}.Build(env)
	jobB, _ := workloads.Sort{Name: "b", TotalBytes: 20 * units.GB, ValuesPerKey: 50, InputReplication: 2}.Build(env)
	d, err := run.Driver(c, env.FS, run.Options{Mode: run.Monotasks})
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := d.Submit(jobA)
	hb, _ := d.Submit(jobB)
	c.Engine.At(15, func() {
		if err := d.FailMachine(3); err != nil {
			t.Error(err)
		}
	})
	d.Run()
	if !ha.Done() || !hb.Done() {
		t.Fatal("a concurrent job did not recover from the shared failure")
	}
}
