package figures

import (
	"context"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/workloads"
)

// oneHDD is the Fig. 12 target configuration: the same machines with one of
// the two disks removed.
func oneHDD() cluster.MachineSpec {
	spec := cluster.M2_4XLarge()
	spec.Disks = spec.Disks[:1]
	return spec
}

// Fig12Row holds one query's disk-removal prediction from all three models:
// the monotasks model (Fig. 12), the slot-based Spark model (Fig. 15), and
// the measured-utilization Spark model (Fig. 17).
type Fig12Row struct {
	Query string
	// MonoSpark side.
	MonoBaseline  float64
	MonoPredicted float64
	MonoActual    float64
	// Spark side.
	SparkBaseline float64
	SparkActual   float64
	SlotPredicted float64 // Fig. 15
	UtilPredicted float64 // Fig. 17
}

// Fig12Result covers Figs. 12, 15, and 17 in one pass (they share runs).
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12 predicts the big data benchmark with one disk per machine instead
// of two, with each of the three models, and measures reality for both
// systems.
func Fig12(ctx context.Context, setup Setup) (*Fig12Result, error) {
	queries := workloads.BDBQueryNames()
	// Grid: queries × {mono 2-HDD, mono 1-HDD, spark 2-HDD, spark 1-HDD}.
	// Models are derived from the retained runs after the sweep.
	grid := []struct {
		mode run.Mode
		one  bool
	}{
		{run.Monotasks, false}, {run.Monotasks, true},
		{run.Spark, false}, {run.Spark, true},
	}
	results, err := sweep.Run(ctx, setup.Workers, len(queries)*len(grid), func(i int) (*RunResult, error) {
		q, g := queries[i/len(grid)], grid[i%len(grid)]
		build := func(env *workloads.Env) (*task.JobSpec, error) { return workloads.BDBQuery(q, env) }
		spec := cluster.M2_4XLarge()
		if g.one {
			spec = oneHDD()
		}
		return execute(ctx, setup, 5, spec, run.Options{Mode: g.mode}, build)
	})
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{}
	for qi, q := range queries {
		base, after := results[qi*len(grid)], results[qi*len(grid)+1]
		sparkBase, sparkAfter := results[qi*len(grid)+2], results[qi*len(grid)+3]
		row := Fig12Row{Query: q}

		// MonoSpark: baseline on 2 HDDs, model, then 1-HDD reality.
		row.MonoBaseline = float64(base.Jobs[0].Duration())
		profile := model.FromMetrics(base.Jobs[0], model.ClusterResources(base.Cluster))
		row.MonoPredicted = model.Predict(profile, model.ScaleDiskBW(0.5)).PredictedSeconds
		row.MonoActual = float64(after.Jobs[0].Duration())

		// Spark: baseline on 2 HDDs with external measurements, the two
		// Spark-feasible models, then 1-HDD reality.
		row.SparkBaseline = float64(sparkBase.Jobs[0].Duration())
		// Fig. 15: slots don't change when a disk is removed.
		slots := 5 * cluster.M2_4XLarge().Cores
		row.SlotPredicted = model.SlotPrediction(row.SparkBaseline, slots, slots)
		// Fig. 17: measure per-stage usage with OS counters and feed the
		// same ideal-time model.
		var measured []model.MeasuredStage
		for _, st := range sparkBase.Jobs[0].Stages {
			measured = append(measured, model.MeasuredStage{
				Name:          st.Spec.Name,
				Usage:         metrics.Measure(sparkBase.Cluster, st.Start, st.End),
				ActualSeconds: float64(st.Duration()),
			})
		}
		utilProfile := model.FromMeasured("q"+q, measured, model.ClusterResources(sparkBase.Cluster))
		row.UtilPredicted = model.Predict(utilProfile, model.ScaleDiskBW(0.5)).PredictedSeconds
		row.SparkActual = float64(sparkAfter.Jobs[0].Duration())

		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fprint renders the Fig. 12 view (monotasks model).
func (r *Fig12Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 12: predict 2 HDD → 1 HDD per machine (monotasks model)\n")
	fprintf(w, "%-6s %12s %13s %11s %8s\n", "query", "baseline(s)", "predicted(s)", "actual(s)", "err%")
	for _, row := range r.Rows {
		fprintf(w, "%-6s %12.1f %13.1f %11.1f %+8.1f\n",
			row.Query, row.MonoBaseline, row.MonoPredicted, row.MonoActual,
			pctErr(row.MonoPredicted, row.MonoActual))
	}
}

// Verify fails unless the monotasks model predicts every query but q3c
// within 14%, and q3c over-predicts by at most the paper's 28% (Fig. 12).
func (r *Fig12Result) Verify() error {
	var c claims
	for _, row := range r.Rows {
		e := pctErr(row.MonoPredicted, row.MonoActual)
		if row.Query == "3c" {
			c.check(e > 0 && e <= 28, "q3c error %+.2f%% outside (0, 28]", e)
		} else {
			c.check(math.Abs(e) <= 14, "q%s |error| %.2f%% above 14%%", row.Query, math.Abs(e))
		}
	}
	return c.verdict("fig12")
}

// VerifyFig15 fails unless the slot model errs more on average than the
// monotasks model does on the same change (Fig. 15).
func (r *Fig12Result) VerifyFig15() error {
	return r.worseThanMono("fig15", func(row Fig12Row) float64 { return row.SlotPredicted })
}

// VerifyFig17 fails unless the measured-utilization model errs more on
// average than the monotasks model does on the same change (Fig. 17).
func (r *Fig12Result) VerifyFig17() error {
	return r.worseThanMono("fig17", func(row Fig12Row) float64 { return row.UtilPredicted })
}

// worseThanMono compares a Spark-side model's mean |error| against Spark's
// measured runtime with the monotasks model's against MonoSpark's.
func (r *Fig12Result) worseThanMono(experiment string, predicted func(Fig12Row) float64) error {
	var spark, mono float64
	for _, row := range r.Rows {
		spark += math.Abs(pctErr(predicted(row), row.SparkActual))
		mono += math.Abs(pctErr(row.MonoPredicted, row.MonoActual))
	}
	n := float64(len(r.Rows))
	var c claims
	c.check(spark > mono, "mean |error| %.2f%% not above the monotasks model's %.2f%%", spark/n, mono/n)
	return c.verdict(experiment)
}

// FprintFig15 renders the slot-model view of the same change.
func (r *Fig12Result) FprintFig15(w io.Writer) {
	fprintf(w, "Figure 15: slot-based Spark model for 2 HDD → 1 HDD (slots unchanged ⇒ no change predicted)\n")
	fprintf(w, "%-6s %12s %13s %11s %8s\n", "query", "baseline(s)", "predicted(s)", "actual(s)", "err%")
	for _, row := range r.Rows {
		fprintf(w, "%-6s %12.1f %13.1f %11.1f %+8.1f\n",
			row.Query, row.SparkBaseline, row.SlotPredicted, row.SparkActual,
			pctErr(row.SlotPredicted, row.SparkActual))
	}
}

// FprintFig17 renders the measured-utilization model view.
func (r *Fig12Result) FprintFig17(w io.Writer) {
	fprintf(w, "Figure 17: Spark measured-utilization model for 2 HDD → 1 HDD\n")
	fprintf(w, "%-6s %12s %13s %11s %8s\n", "query", "baseline(s)", "predicted(s)", "actual(s)", "err%")
	for _, row := range r.Rows {
		fprintf(w, "%-6s %12.1f %13.1f %11.1f %+8.1f\n",
			row.Query, row.SparkBaseline, row.UtilPredicted, row.SparkActual,
			pctErr(row.UtilPredicted, row.SparkActual))
	}
}

// Fig14Row is one query's bottleneck analysis: predicted runtime with each
// resource made infinitely fast, as a fraction of the measured runtime the
// prediction scales (the sum of stage durations). Original is the job's
// wall-clock runtime.
type Fig14Row struct {
	Query      string
	Original   float64
	NoDiskFrac float64
	NoNetFrac  float64
	NoCPUFrac  float64
	Bottleneck task.Resource
}

// Fig14Result replicates the NSDI '15 blocked-time analysis with monotask
// runtimes (Fig. 14).
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14 profiles each query once (all queries concurrently) and removes each
// resource from the model.
func Fig14(ctx context.Context, setup Setup) (*Fig14Result, error) {
	queries := workloads.BDBQueryNames()
	rows, err := sweep.Run(ctx, setup.Workers, len(queries), func(i int) (Fig14Row, error) {
		q := queries[i]
		build := func(env *workloads.Env) (*task.JobSpec, error) { return workloads.BDBQuery(q, env) }
		res, err := execute(ctx, setup, 5, cluster.M2_4XLarge(), run.Options{Mode: run.Monotasks}, build)
		if err != nil {
			return Fig14Row{}, err
		}
		profile := model.FromMetrics(res.Jobs[0], model.ClusterResources(res.Cluster))
		orig := float64(res.Jobs[0].Duration())
		// Normalize by the prediction's own baseline, the sum of stage
		// durations: stages overlap, so that sum can exceed the job's wall
		// time, and dividing by the latter reads overlap as a slowdown.
		frac := func(r task.Resource) float64 {
			p := model.Predict(profile, model.InfinitelyFast(r))
			return p.PredictedSeconds / p.ActualSeconds
		}
		// Job-level bottleneck: the resource whose removal helps most.
		row := Fig14Row{
			Query:      q,
			Original:   orig,
			NoDiskFrac: frac(task.DiskResource),
			NoNetFrac:  frac(task.NetworkResource),
			NoCPUFrac:  frac(task.CPUResource),
		}
		switch {
		case row.NoCPUFrac <= row.NoDiskFrac && row.NoCPUFrac <= row.NoNetFrac:
			row.Bottleneck = task.CPUResource
		case row.NoDiskFrac <= row.NoNetFrac:
			row.Bottleneck = task.DiskResource
		default:
			row.Bottleneck = task.NetworkResource
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig14Result{Rows: rows}, nil
}

// Verify fails unless Fig. 14 reproduces NSDI '15's findings as the
// monotasks model states them: removing a resource never predicts a slower
// job (no fraction above 1), removing the network changes no query by more
// than 1%, and the CPU is the bottleneck for at least half the queries.
func (r *Fig14Result) Verify() error {
	var c claims
	cpuBound := 0
	for _, row := range r.Rows {
		for _, frac := range []float64{row.NoDiskFrac, row.NoNetFrac, row.NoCPUFrac} {
			c.check(frac <= 1, "q%s: removing a resource predicted %v > 1", row.Query, frac)
		}
		c.check(row.NoNetFrac >= 0.99, "q%s: removing the network predicted %.3f < 0.99", row.Query, row.NoNetFrac)
		if row.Bottleneck == task.CPUResource {
			cpuBound++
		}
	}
	c.check(2*cpuBound >= len(r.Rows), "only %d of %d queries CPU-bound", cpuBound, len(r.Rows))
	return c.verdict("fig14")
}

// Fprint renders the analysis.
func (r *Fig14Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 14: best-case runtime fraction with each resource infinitely fast\n")
	fprintf(w, "%-6s %10s %9s %9s %9s %12s\n", "query", "orig(s)", "no-disk", "no-net", "no-cpu", "bottleneck")
	for _, row := range r.Rows {
		fprintf(w, "%-6s %10.1f %9.2f %9.2f %9.2f %12v\n",
			row.Query, row.Original, row.NoDiskFrac, row.NoNetFrac, row.NoCPUFrac, row.Bottleneck)
	}
}
