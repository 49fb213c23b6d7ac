package jobsched_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/faults"
	"repro/internal/jobsched"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workloads"
)

// BenchmarkStreamBacklog drives the driver under a growing backlog: the
// shape of perfbench's jobstream workload, an open-loop Poisson stream of
// small sorts on 4 machines (64 maps and 32 reduces per job, a 14 s mean
// gap, pools prod:adhoc weighted 3:1) under one seeded plan of transient
// faults per 100 jobs. The faults slow the cluster below the arrival rate,
// so the stream backs up as it grows and the number of active jobs each
// pick sees rises with the job count. ns/job is host time per submitted
// job; it stays flat only if the driver's per-slot cost does not grow with
// the backlog.
func BenchmarkStreamBacklog(b *testing.B) {
	for _, jobs := range []int{200, 400, 800, 1200} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, fs, o, subs := backlogStream(b, jobs)
				b.StartTimer()
				hs, err := run.JobsAtContext(context.Background(), c, fs, o, subs)
				if err != nil {
					b.Fatal(err)
				}
				for _, h := range hs {
					if !h.Done() {
						b.Fatalf("job %s did not finish: %v", h.Spec.Name, h.Err())
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
		})
	}
}

// backlogStream materializes the stream and its fault plan on a fresh
// cluster.
func backlogStream(b *testing.B, jobs int) (*cluster.Cluster, *dfs.FS, run.Options, []run.Submission) {
	const machines, meanGap, segment = 4, 14.0, 100
	c, err := cluster.New(machines, cluster.M2_4XLarge())
	if err != nil {
		b.Fatal(err)
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		b.Fatal(err)
	}
	arrivals, err := workloads.MultiJob{
		Name: "backlog", Jobs: jobs, MeanInterarrival: meanGap, Seed: 1,
		JobBytes: 2 * units.GB, ValuesPerKey: []int{10, 50},
		MapTasks: 64, ReduceTasks: 32, Pools: []string{"prod", "adhoc"},
	}.Build(env)
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]run.Submission, len(arrivals))
	for i, a := range arrivals {
		subs[i] = run.Submission{Spec: a.Spec, At: a.At, Opts: jobsched.SubmitOptions{Pool: a.Pool}}
	}
	// One transient-fault plan per segment of jobs, shifted to the
	// segment's span of arrivals, as jobstream draws them.
	span := segment * meanGap
	plan := faults.Plan{Seed: 1}
	for k := 0; k*segment < jobs; k++ {
		p, err := faults.RandomPlan(100+int64(k), faults.PlanConfig{
			Machines: machines, Horizon: sim.Duration(span),
			Stragglers: 1, DiskErrorWindows: 1, FlakyFetchWindows: 1, TaskKills: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range p.Events {
			e.At += sim.Time(float64(k) * span)
			plan.Events = append(plan.Events, e)
		}
	}
	inj, err := faults.NewInjector(c, plan)
	if err != nil {
		b.Fatal(err)
	}
	o := run.Options{Mode: run.Monotasks, Faults: inj, Sched: jobsched.Config{
		MaxTaskFailures: 8,
		Pools: []jobsched.PoolConfig{
			{Name: "prod", Weight: 3},
			{Name: "adhoc", Weight: 1},
		},
	}}
	return c, env.FS, o, subs
}
