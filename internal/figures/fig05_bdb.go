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
	"repro/internal/workloads"
)

// Fig05Row is one big data benchmark query under the three systems.
type Fig05Row struct {
	Query      string
	Spark      sim.Duration
	SparkFlush sim.Duration
	MonoSpark  sim.Duration
}

// MonoVsSpark is MonoSpark's runtime relative to Spark (1.0 = equal,
// >1 = MonoSpark slower).
func (r Fig05Row) MonoVsSpark() float64 { return float64(r.MonoSpark) / float64(r.Spark) }

// MonoVsFlush compares against the write-through Spark configuration.
func (r Fig05Row) MonoVsFlush() float64 { return float64(r.MonoSpark) / float64(r.SparkFlush) }

// Fig05Result is the Fig. 5 table plus the stage-utilization summaries that
// Fig. 6 reports for the same runs.
type Fig05Result struct {
	Rows []Fig05Row
	// Fig6 boxes: per query and system, the two most utilized resources
	// during each stage.
	Util map[string][]StageUtilRow
}

// StageUtilRow is one stage's Fig. 6 entry.
type StageUtilRow struct {
	System     string
	Stage      string
	Bottleneck metrics.ResourceName
	Box        metrics.BoxPlot
	Second     metrics.ResourceName
	SecondBox  metrics.BoxPlot
}

// Fig05 runs every benchmark query under Spark, Spark-with-flushed-writes,
// and MonoSpark on the paper's 5-worker HDD cluster. The (query, mode) grid
// cells are independent runs, fanned out through the sweep pool.
func Fig05(ctx context.Context, setup Setup) (*Fig05Result, error) {
	queries := workloads.BDBQueryNames()
	modes := []run.Mode{run.Spark, run.SparkWriteThrough, run.Monotasks}
	type cell struct {
		dur  sim.Duration
		util []StageUtilRow
	}
	cells, err := sweep.Run(ctx, setup.Workers, len(queries)*len(modes), func(i int) (cell, error) {
		q, mode := queries[i/len(modes)], modes[i%len(modes)]
		res, err := execute(ctx, setup, 5, cluster.M2_4XLarge(), run.Options{Mode: mode},
			func(env *workloads.Env) (*task.JobSpec, error) { return workloads.BDBQuery(q, env) })
		if err != nil {
			return cell{}, err
		}
		c := cell{dur: res.Jobs[0].Duration()}
		if mode == run.SparkWriteThrough {
			return c, nil // Fig. 6 compares default Spark and MonoSpark
		}
		for _, st := range res.Jobs[0].Stages {
			su := metrics.StageUtil(res.Cluster, st.Start, st.End, 10)
			c.util = append(c.util, StageUtilRow{
				System:     mode.String(),
				Stage:      st.Spec.Name,
				Bottleneck: su.Bottleneck,
				Box:        su.BottleneckBox,
				Second:     su.Second,
				SecondBox:  su.SecondBox,
			})
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig05Result{Util: make(map[string][]StageUtilRow)}
	for qi, q := range queries {
		row := Fig05Row{Query: q}
		for mi, mode := range modes {
			c := cells[qi*len(modes)+mi]
			switch mode {
			case run.Spark:
				row.Spark = c.dur
			case run.SparkWriteThrough:
				row.SparkFlush = c.dur
			default:
				row.MonoSpark = c.dur
			}
			out.Util[q] = append(out.Util[q], c.util...)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fprint renders the Fig. 5 table.
func (r *Fig05Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 5: big data benchmark, 5 workers × (8 cores, 2 HDD)\n")
	fprintf(w, "%-6s %10s %14s %11s %12s %12s\n",
		"query", "spark(s)", "spark-flush(s)", "mono(s)", "mono/spark", "mono/flush")
	for _, row := range r.Rows {
		fprintf(w, "%-6s %10.1f %14.1f %11.1f %12.2f %12.2f\n",
			row.Query, float64(row.Spark), float64(row.SparkFlush), float64(row.MonoSpark),
			row.MonoVsSpark(), row.MonoVsFlush())
	}
}

// Verify fails unless MonoSpark's runtime over Spark's lies in [0.70, 1.10]
// on every query but q1c, the buffer-cache outlier, which may reach 1.60
// (Fig. 5).
func (r *Fig05Result) Verify() error {
	var c claims
	for _, row := range r.Rows {
		hi := 1.10
		if row.Query == "1c" {
			hi = 1.60
		}
		v := row.MonoVsSpark()
		c.check(v >= 0.70 && v <= hi, "q%s mono/spark %.3f outside [0.70, %.2f]", row.Query, v, hi)
	}
	return c.verdict("fig5")
}

// VerifyFig6 fails unless, in every stage whose bottleneck under Spark is
// the CPU, MonoSpark's median CPU utilization is at least Spark's (Fig. 6).
// A MonoSpark stage whose two busiest resources leave out the CPU fails.
func (r *Fig05Result) VerifyFig6() error {
	var c claims
	for _, q := range workloads.BDBQueryNames() {
		for _, spark := range r.Util[q] {
			if spark.System != run.Spark.String() || spark.Bottleneck != metrics.CPU {
				continue
			}
			mono := -1.0
			for _, u := range r.Util[q] {
				if u.System == run.Monotasks.String() && u.Stage == spark.Stage {
					mono = u.median(metrics.CPU)
				}
			}
			c.check(mono >= spark.Box.P50, "%s: monospark cpu median %.2f below spark's %.2f", spark.Stage, mono, spark.Box.P50)
		}
	}
	return c.verdict("fig6")
}

// median is the stage's median utilization of r, or -1 when r is neither
// of its two busiest resources.
func (u StageUtilRow) median(r metrics.ResourceName) float64 {
	switch r {
	case u.Bottleneck:
		return u.Box.P50
	case u.Second:
		return u.SecondBox.P50
	}
	return -1
}

// FprintFig6 renders the stage-utilization boxes for the same runs.
func (r *Fig05Result) FprintFig6(w io.Writer) {
	fprintf(w, "Figure 6: two most utilized resources per stage (p5/p25/p50/p75/p95)\n")
	for _, q := range workloads.BDBQueryNames() {
		for _, u := range r.Util[q] {
			fprintf(w, "q%-3s %-10s %-18s best=%-7s [%.2f %.2f %.2f %.2f %.2f]  2nd=%-7s [%.2f %.2f %.2f %.2f %.2f]\n",
				q, u.System, u.Stage,
				u.Bottleneck, u.Box.P5, u.Box.P25, u.Box.P50, u.Box.P75, u.Box.P95,
				u.Second, u.SecondBox.P5, u.SecondBox.P25, u.SecondBox.P50, u.SecondBox.P75, u.SecondBox.P95)
		}
	}
}
