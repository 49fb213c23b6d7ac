package figures

import (
	"context"
	"io"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Fig07Row is one stage of the least-squares workload under both systems.
type Fig07Row struct {
	Stage string
	Spark sim.Duration
	Mono  sim.Duration
}

// Fig07Result compares the machine-learning workload per stage (Fig. 7).
type Fig07Result struct {
	Rows []Fig07Row
	// SparkJob and MonoJob are the whole job's duration under each system.
	SparkJob, MonoJob sim.Duration
}

// Fig07FromJobs builds the comparison from the job's metrics under each
// system.
func Fig07FromJobs(spark, mono *task.JobMetrics) *Fig07Result {
	out := &Fig07Result{SparkJob: spark.Duration(), MonoJob: mono.Duration()}
	for i, st := range spark.Stages {
		out.Rows = append(out.Rows, Fig07Row{
			Stage: st.Spec.Name,
			Spark: st.Duration(),
			Mono:  mono.Stages[i].Duration(),
		})
	}
	return out
}

// Fig07 runs the least-squares workload on 15 two-SSD workers, both modes
// concurrently.
func Fig07(ctx context.Context, setup Setup) (*Fig07Result, error) {
	modes := []run.Mode{run.Spark, run.Monotasks}
	results, err := sweep.Run(ctx, setup.Workers, len(modes), func(i int) (*RunResult, error) {
		return execute(ctx, setup, 15, cluster.I2_2XLarge(2), run.Options{Mode: modes[i]},
			workloads.LeastSquares{}.Build)
	})
	if err != nil {
		return nil, err
	}
	return Fig07FromJobs(results[0].Jobs[0], results[1].Jobs[0]), nil
}

// MaxRatio is the worst per-stage MonoSpark-to-Spark ratio.
func (r *Fig07Result) MaxRatio() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if ratio := float64(row.Mono) / float64(row.Spark); ratio > worst {
			worst = ratio
		}
	}
	return worst
}

// JobRatio is the whole job's MonoSpark-to-Spark ratio.
func (r *Fig07Result) JobRatio() float64 { return float64(r.MonoJob) / float64(r.SparkJob) }

// Verify fails unless every stage runs within 1.3× of Spark and the whole
// job's ratio lies in [0.7, 1.3]: on par, within Known deviation 4's margin
// (Fig. 7).
func (r *Fig07Result) Verify() error {
	var c claims
	c.check(r.MaxRatio() <= 1.3, "worst stage mono/spark %.3f above 1.3", r.MaxRatio())
	c.check(r.JobRatio() >= 0.7 && r.JobRatio() <= 1.3, "job mono/spark %.3f outside [0.7, 1.3]", r.JobRatio())
	return c.verdict("fig7")
}

// Fprint renders the per-stage table.
func (r *Fig07Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 7: least squares (matrix multiply) per stage, 15 workers × (8 cores, 2 SSD)\n")
	fprintf(w, "%-14s %10s %10s %8s\n", "stage", "spark(s)", "mono(s)", "ratio")
	for _, row := range r.Rows {
		fprintf(w, "%-14s %10.1f %10.1f %8.2f\n", row.Stage,
			float64(row.Spark), float64(row.Mono), float64(row.Mono)/float64(row.Spark))
	}
}

// Fig08Row is one task-count point of the pipelining-sensitivity sweep.
type Fig08Row struct {
	Tasks int
	Waves float64
	Spark sim.Duration
	Mono  sim.Duration
}

// MonoVsSpark is MonoSpark's runtime relative to Spark's.
func (r Fig08Row) MonoVsSpark() float64 { return float64(r.Mono) / float64(r.Spark) }

// Fig08Result is the Fig. 8 sweep: runtime versus number of tasks for a job
// that reads input and computes on it, on 20 workers (160 cores).
type Fig08Result struct {
	Rows []Fig08Row
}

// Fig08 sweeps the task count from one wave (160) upward; the (task count,
// mode) grid runs through the sweep pool.
func Fig08(ctx context.Context, setup Setup) (*Fig08Result, error) {
	const totalBytes = 200 * units.GB
	taskCounts := []int{160, 320, 480, 960, 1920}
	modes := []run.Mode{run.Spark, run.Monotasks}
	durs, err := sweep.Run(ctx, setup.Workers, len(taskCounts)*len(modes), func(i int) (sim.Duration, error) {
		tasks, mode := taskCounts[i/len(modes)], modes[i%len(modes)]
		res, err := execute(ctx, setup, 20, cluster.M2_4XLarge(), run.Options{Mode: mode},
			workloads.ReadCompute{TotalBytes: totalBytes, NumTasks: tasks}.Build)
		if err != nil {
			return 0, err
		}
		return res.Jobs[0].Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig08Result{}
	for ti, tasks := range taskCounts {
		out.Rows = append(out.Rows, Fig08Row{
			Tasks: tasks,
			Waves: float64(tasks) / 160,
			Spark: durs[ti*len(modes)],
			Mono:  durs[ti*len(modes)+1],
		})
	}
	return out, nil
}

// Fprint renders the sweep.
func (r *Fig08Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 8: read+compute job vs task count, 20 workers (160 cores)\n")
	fprintf(w, "%8s %7s %10s %10s %12s\n", "tasks", "waves", "spark(s)", "mono(s)", "mono/spark")
	for _, row := range r.Rows {
		fprintf(w, "%8d %7.1f %10.1f %10.1f %12.2f\n", row.Tasks, row.Waves,
			float64(row.Spark), float64(row.Mono), row.MonoVsSpark())
	}
}

// Verify fails unless MonoSpark's runtime relative to Spark's falls
// strictly with every added wave (Fig. 8).
func (r *Fig08Result) Verify() error {
	var c claims
	for i := 1; i < len(r.Rows); i++ {
		prev, cur := r.Rows[i-1], r.Rows[i]
		c.check(cur.MonoVsSpark() < prev.MonoVsSpark(), "mono/spark %.3f at %.0f waves not below %.3f at %.0f",
			cur.MonoVsSpark(), cur.Waves, prev.MonoVsSpark(), prev.Waves)
	}
	return c.verdict("fig8")
}

// Fig09Result compares utilization during the q2c map stage (Fig. 9): the
// monotasks per-resource schedulers keep the bottleneck CPU pegged while
// Spark's independent tasks leave it partially idle.
type Fig09Result struct {
	SparkCPU, SparkDisk float64
	MonoCPU, MonoDisk   float64
	SparkSeries         [][2]float64 // (cpu, disk) samples
	MonoSeries          [][2]float64
}

// Fig09 runs q2c in both modes concurrently and summarizes map-stage
// utilization.
func Fig09(ctx context.Context, setup Setup) (*Fig09Result, error) {
	type cell struct {
		cpu, disk float64
		series    [][2]float64
	}
	modes := []run.Mode{run.Spark, run.Monotasks}
	cells, err := sweep.Run(ctx, setup.Workers, len(modes), func(i int) (cell, error) {
		res, err := execute(ctx, setup, 5, cluster.M2_4XLarge(), run.Options{Mode: modes[i]},
			func(env *workloads.Env) (*task.JobSpec, error) { return workloads.BDBQuery("2c", env) })
		if err != nil {
			return cell{}, err
		}
		st := res.Jobs[0].Stages[0]
		const n = 30
		cpu := metrics.UtilSamples(res.Cluster, metrics.CPU, st.Start, st.End, n)
		disk := metrics.UtilSamples(res.Cluster, metrics.Disk, st.Start, st.End, n)
		meanOf := func(s []float64) float64 {
			var sum float64
			for _, v := range s {
				sum += v
			}
			return sum / float64(len(s))
		}
		series := make([][2]float64, 0, n)
		m0cpu := res.Cluster.Machines[0].CPU.Util.Samples(st.Start, st.End, n)
		m0disk := res.Cluster.Machines[0].Disks[0].Util.Samples(st.Start, st.End, n)
		for j := 0; j < n; j++ {
			series = append(series, [2]float64{m0cpu[j], m0disk[j]})
		}
		return cell{cpu: meanOf(cpu), disk: meanOf(disk), series: series}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig09Result{
		SparkCPU: cells[0].cpu, SparkDisk: cells[0].disk, SparkSeries: cells[0].series,
		MonoCPU: cells[1].cpu, MonoDisk: cells[1].disk, MonoSeries: cells[1].series,
	}, nil
}

// Verify fails unless MonoSpark keeps the CPU at least 0.85 busy on average
// (the paper: above 0.92), and busier than Spark does (Fig. 9).
func (r *Fig09Result) Verify() error {
	var c claims
	c.check(r.MonoCPU >= 0.85, "monospark mean cpu %.3f below 0.85", r.MonoCPU)
	c.check(r.MonoCPU > r.SparkCPU, "monospark mean cpu %.3f not above spark's %.3f", r.MonoCPU, r.SparkCPU)
	return c.verdict("fig9")
}

// Fprint renders the summary and series.
func (r *Fig09Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 9: utilization during the q2c map stage (CPU is the bottleneck)\n")
	fprintf(w, "%-10s %10s %10s\n", "system", "mean cpu", "mean disk")
	fprintf(w, "%-10s %10.2f %10.2f\n", "spark", r.SparkCPU, r.SparkDisk)
	fprintf(w, "%-10s %10.2f %10.2f\n", "monospark", r.MonoCPU, r.MonoDisk)
	fprintf(w, "machine-0 series (cpu/disk):\n spark: ")
	for _, s := range r.SparkSeries {
		fprintf(w, "%.2f/%.2f ", s[0], s[1])
	}
	fprintf(w, "\n mono:  ")
	for _, s := range r.MonoSeries {
		fprintf(w, "%.2f/%.2f ", s[0], s[1])
	}
	fprintf(w, "\n")
}
