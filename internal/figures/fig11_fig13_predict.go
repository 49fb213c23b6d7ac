package figures

import (
	"context"
	"io"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workloads"
)

// PredictRow is one what-if prediction versus reality.
type PredictRow struct {
	Label     string
	Baseline  float64 // measured runtime in the original configuration
	Predicted float64 // model's prediction for the new configuration
	Actual    float64 // measured runtime in the new configuration
}

// ErrPct is the prediction's signed relative error.
func (r PredictRow) ErrPct() float64 { return pctErr(r.Predicted, r.Actual) }

// PredictResult is a table of predictions (Figs. 11–13, §6.3).
type PredictResult struct {
	Title string
	Rows  []PredictRow
	// claim is the experiment's verdict on the table; nil claims nothing.
	claim func(*PredictResult) error
}

// Verify fails unless the table bears out its experiment's claim.
func (r *PredictResult) Verify() error {
	if r.claim == nil {
		return nil
	}
	return r.claim(r)
}

// fig11Claim: the model rightly predicts no change, to the last bit, for the
// CPU-bound 10-value sort, and no prediction errs by more than 12%, Known
// deviation 3's 11.6% rounded up.
func fig11Claim(r *PredictResult) error {
	var c claims
	row := r.Rows[0]
	c.check(row.Predicted == row.Baseline, "%s: predicted %v s, want its baseline %v s", row.Label, row.Predicted, row.Baseline)
	c.check(r.MaxAbsErrPct() <= 12, "max |error| %.2f%% above 12%%", r.MaxAbsErrPct())
	return c.verdict("fig11")
}

// sec63Claim: in-memory input is faster, and the model predicts it within
// the paper's 4%.
func sec63Claim(r *PredictResult) error {
	var c claims
	row := r.Rows[0]
	c.check(row.Actual < row.Baseline, "in-memory run %.1f s not faster than on-disk %.1f s", row.Actual, row.Baseline)
	c.check(r.MaxAbsErrPct() <= 4, "max |error| %.2f%% above 4%%", r.MaxAbsErrPct())
	return c.verdict("sec63")
}

// fig13Claim: every prediction is within the paper's 23% and over-predicts
// the improvement, since the bigger cluster reads less shuffle data locally.
func fig13Claim(r *PredictResult) error {
	var c claims
	c.check(r.MaxAbsErrPct() <= 23, "max |error| %.2f%% above 23%%", r.MaxAbsErrPct())
	for _, row := range r.Rows {
		c.check(row.Predicted < row.Actual, "%s: predicted %.1f s, not below actual %.1f s", row.Label, row.Predicted, row.Actual)
	}
	return c.verdict("fig13")
}

// MaxAbsErrPct is the worst absolute prediction error in the table.
func (r *PredictResult) MaxAbsErrPct() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		e := row.ErrPct()
		if e < 0 {
			e = -e
		}
		if e > worst {
			worst = e
		}
	}
	return worst
}

// Fprint renders the prediction table.
func (r *PredictResult) Fprint(w io.Writer) {
	fprintf(w, "%s\n", r.Title)
	fprintf(w, "%-14s %12s %13s %11s %8s\n", "workload", "baseline(s)", "predicted(s)", "actual(s)", "err%")
	for _, row := range r.Rows {
		fprintf(w, "%-14s %12.1f %13.1f %11.1f %+8.1f\n",
			row.Label, row.Baseline, row.Predicted, row.Actual, row.ErrPct())
	}
	fprintf(w, "max |error| = %.1f%%\n", r.MaxAbsErrPct())
}

// Fig11 predicts the effect of doubling SSDs per machine for the sort
// workload at three value sizes: run on 20×1-SSD, predict 20×2-SSD from
// monotask times, then actually run 20×2-SSD.
func Fig11(ctx context.Context, setup Setup) (*PredictResult, error) {
	out := &PredictResult{Title: "Figure 11: predict 2× SSDs (sort 600 GB, 20 workers × 1 SSD → 2 SSD)", claim: fig11Claim}
	valueCounts := []int{10, 20, 50}
	// Grid: values × {1-SSD baseline, 2-SSD target}. The prediction is derived
	// from the returned baseline run after the sweep.
	results, err := sweep.Run(ctx, setup.Workers, len(valueCounts)*2, func(i int) (*RunResult, error) {
		sort := workloads.Sort{TotalBytes: 600 * units.GB, ValuesPerKey: valueCounts[i/2]}
		return execute(ctx, setup, 20, cluster.I2_2XLarge(1+i%2), run.Options{Mode: run.Monotasks}, sort.Build)
	})
	if err != nil {
		return nil, err
	}
	for vi, values := range valueCounts {
		base, after := results[vi*2], results[vi*2+1]
		profile := model.FromMetrics(base.Jobs[0], model.ClusterResources(base.Cluster))
		pred := model.Predict(profile, model.ScaleDiskBW(2))
		out.Rows = append(out.Rows, PredictRow{
			Label:     labelValues(values),
			Baseline:  float64(base.Jobs[0].Duration()),
			Predicted: pred.PredictedSeconds,
			Actual:    float64(after.Jobs[0].Duration()),
		})
	}
	return out, nil
}

// Sec63 predicts storing input deserialized in memory (§6.3): the model
// removes input-read disk time and the deserialization share of compute.
func Sec63(ctx context.Context, setup Setup) (*PredictResult, error) {
	out := &PredictResult{Title: "§6.3: predict in-memory deserialized input (sort, 20 workers × 2 HDD)", claim: sec63Claim}
	sortDisk := workloads.Sort{Name: "sort-disk", TotalBytes: 40 * units.GB, ValuesPerKey: 10}
	sortMem := workloads.Sort{Name: "sort-mem", TotalBytes: 40 * units.GB, ValuesPerKey: 10, InMemoryInput: true}
	builders := []Builder{sortDisk.Build, sortMem.Build}
	results, err := sweep.Run(ctx, setup.Workers, len(builders), func(i int) (*RunResult, error) {
		return execute(ctx, setup, 20, cluster.M2_4XLarge(), run.Options{Mode: run.Monotasks}, builders[i])
	})
	if err != nil {
		return nil, err
	}
	base, after := results[0], results[1]
	profile := model.FromMetrics(base.Jobs[0], model.ClusterResources(base.Cluster))
	pred := model.Predict(profile, model.InMemoryInput{})
	out.Rows = append(out.Rows, PredictRow{
		Label:     "sort-10v",
		Baseline:  float64(base.Jobs[0].Duration()),
		Predicted: pred.PredictedSeconds,
		Actual:    float64(after.Jobs[0].Duration()),
	})
	return out, nil
}

// Fig13 predicts a combined hardware and software migration: 5 machines
// with HDDs and on-disk input → 20 machines with SSDs and in-memory
// deserialized input — a ~10× runtime change (Fig. 13).
func Fig13(ctx context.Context, setup Setup) (*PredictResult, error) {
	out := &PredictResult{Title: "Figure 13: predict 5×2-HDD on-disk → 20×2-SSD in-memory (sort 100 GB)", claim: fig13Claim}
	valueCounts := []int{10, 20, 50}
	results, err := sweep.Run(ctx, setup.Workers, len(valueCounts)*2, func(i int) (*RunResult, error) {
		values := valueCounts[i/2]
		if i%2 == 0 {
			before := workloads.Sort{TotalBytes: 100 * units.GB, ValuesPerKey: values}
			return execute(ctx, setup, 5, cluster.M2_4XLarge(), run.Options{Mode: run.Monotasks}, before.Build)
		}
		after := workloads.Sort{TotalBytes: 100 * units.GB, ValuesPerKey: values, InMemoryInput: true}
		return execute(ctx, setup, 20, cluster.I2_2XLarge(2), run.Options{Mode: run.Monotasks}, after.Build)
	})
	if err != nil {
		return nil, err
	}
	for vi, values := range valueCounts {
		base, target := results[vi*2], results[vi*2+1]
		profile := model.FromMetrics(base.Jobs[0], model.ClusterResources(base.Cluster))
		// 4× machines, HDD→SSD (2×100 MB/s → 2×400 MB/s per machine), input
		// in memory. ScaleCluster covers the machine count; the disk-type
		// change is the remaining 4× on aggregate disk bandwidth.
		pred := model.Predict(profile,
			model.ScaleCluster(4),
			model.ScaleDiskBW(4),
			model.InMemoryInput{},
		)
		out.Rows = append(out.Rows, PredictRow{
			Label:     labelValues(values),
			Baseline:  float64(base.Jobs[0].Duration()),
			Predicted: pred.PredictedSeconds,
			Actual:    float64(target.Jobs[0].Duration()),
		})
	}
	return out, nil
}

func labelValues(values int) string {
	switch values {
	case 10:
		return "sort-10v"
	case 20:
		return "sort-20v"
	case 50:
		return "sort-50v"
	default:
		return "sort"
	}
}
