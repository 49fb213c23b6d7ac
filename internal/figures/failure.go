package figures

import (
	"context"
	"fmt"
	"io"
	"regexp"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/jobsched"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workloads"
)

// FailureResult is the fault-tolerance extension experiment, run as a
// matrix: one worker fail-stops during the map stage or during the reduce
// stage, over replicated or unreplicated input, with speculation off or on,
// under both executors. Replicated-input combinations complete at a
// measurable overhead (Spark's FetchFailure → parent-stage resubmission).
// Every unreplicated-input combination aborts with a descriptive error, in
// either phase: a reduce-phase crash loses map outputs too, so the driver
// re-runs map task 4, and that task's only input replica was on the failed
// machine. A single-replica DFS cannot survive losing an input block's only
// home. The paper's frameworks all carry this machinery (§2.1's
// bulk-synchronous model); the experiment quantifies it.
type FailureResult struct {
	Rows []FailureRow
}

// FailureRow is one (system, phase, replication, speculation) cell.
type FailureRow struct {
	System      string
	Phase       string // stage the failure lands in: "map" or "reduce"
	Replication int    // input replication factor
	Speculation bool
	Clean       sim.Duration // same configuration without the failure
	WithFailure sim.Duration
	Outcome     string // "completed", or the abort reason
}

// Overhead is the failure run's slowdown relative to the clean run.
func (r FailureRow) Overhead() float64 { return float64(r.WithFailure)/float64(r.Clean) - 1 }

// Completed reports whether the failure run finished despite the fault.
func (r FailureRow) Completed() bool { return r.Outcome == "completed" }

const (
	failureMachines  = 5
	failureMachineID = 4 // the worker that fail-stops
	// Failure phase positions as fractions of the clean runtime: early
	// enough to land in the map stage, and past the map/reduce boundary.
	mapFailFrac    = 0.15
	reduceFailFrac = 0.60
)

// failureWorkload is the experiment's sort, sized to keep the 24-run matrix
// quick while still spanning a multi-second map and reduce.
func failureWorkload(replication int) workloads.Sort {
	return workloads.Sort{TotalBytes: 20 * units.GB, ValuesPerKey: 25, InputReplication: replication}
}

// failureRun executes one cell: the sort under mode with the given input
// replication and speculation setting, failing machine failureMachineID at
// failAt (no failure when failAt <= 0). It returns the job duration and the
// outcome string.
func failureRun(ctx context.Context, setup Setup, mode run.Mode, replication int, speculation bool, failAt sim.Time) (sim.Duration, string, error) {
	c, err := cluster.New(failureMachines, cluster.M2_4XLarge())
	if err != nil {
		return 0, "", err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return 0, "", err
	}
	job, err := failureWorkload(replication).Build(env)
	if err != nil {
		return 0, "", err
	}
	o := run.Options{Mode: mode, Sched: jobsched.Config{Speculation: speculation}}
	if failAt > 0 {
		o.Faults, err = faults.NewInjector(c, faults.Plan{Events: []faults.Event{
			{At: failAt, Kind: faults.MachineCrash, Machine: failureMachineID},
		}})
		if err != nil {
			return 0, "", err
		}
	}
	hs, err := run.JobsAtContext(ctx, c, env.FS, setup.observe(o), []run.Submission{{Spec: job}})
	if err != nil {
		return 0, "", err
	}
	outcome := "completed"
	if err := hs[0].Err(); err != nil {
		outcome = fmt.Sprintf("aborted: %v", err)
	}
	return hs[0].Metrics.Duration(), outcome, nil
}

// Failure runs the full matrix: {spark, monotasks} × {map, reduce failure}
// × {replication 1, 2} × {speculation off, on}, each against its own clean
// baseline. Two sweep phases: all clean baselines first (the failure
// injection times are fractions of the clean runtimes), then all 16 failure
// runs.
func Failure(ctx context.Context, setup Setup) (*FailureResult, error) {
	type cfg struct {
		mode        run.Mode
		replication int
		speculation bool
	}
	var cfgs []cfg
	for _, mode := range []run.Mode{run.Spark, run.Monotasks} {
		for _, replication := range []int{1, 2} {
			for _, speculation := range []bool{false, true} {
				cfgs = append(cfgs, cfg{mode, replication, speculation})
			}
		}
	}
	cleans, err := sweep.Run(ctx, setup.Workers, len(cfgs), func(i int) (sim.Duration, error) {
		c := cfgs[i]
		clean, outcome, err := failureRun(ctx, setup, c.mode, c.replication, c.speculation, 0)
		if err != nil {
			return 0, err
		}
		if outcome != "completed" {
			return 0, fmt.Errorf("figures: clean %v run did not complete: %s", c.mode, outcome)
		}
		return clean, nil
	})
	if err != nil {
		return nil, err
	}
	phases := []struct {
		name string
		frac float64
	}{{"map", mapFailFrac}, {"reduce", reduceFailFrac}}
	rows, err := sweep.Run(ctx, setup.Workers, len(cfgs)*len(phases), func(i int) (FailureRow, error) {
		c, phase := cfgs[i/len(phases)], phases[i%len(phases)]
		clean := cleans[i/len(phases)]
		dur, outcome, err := failureRun(ctx, setup, c.mode, c.replication, c.speculation,
			sim.Time(float64(clean)*phase.frac))
		if err != nil {
			return FailureRow{}, err
		}
		return FailureRow{
			System:      c.mode.String(),
			Phase:       phase.name,
			Replication: c.replication,
			Speculation: c.speculation,
			Clean:       clean,
			WithFailure: dur,
			Outcome:     outcome,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &FailureResult{Rows: rows}, nil
}

// The failure verdict's terms. The matrix has failureCells cells: 2 systems
// × 2 phases × 2 replication factors × 2 speculation settings. A replicated
// cell may run at most failureMaxOverhead (200%) longer than its clean run.
// failureLostInput matches the abort reason of a cell whose failed machine
// held an input block's only replica.
const (
	failureCells       = 16
	failureMaxOverhead = 2
)

var failureLostInput = regexp.MustCompile(`every replica of block \d+ of ".*" is on a failed machine`)

// Verify fails unless every cell has its expected outcome: a replication-1
// cell aborts because an input block's only replica was on the failed
// machine, and a replicated cell completes, slower than its clean run but by
// no more than failureMaxOverhead. It names each cell that does not.
func (r *FailureResult) Verify() error {
	var c claims
	c.check(len(r.Rows) == failureCells, "%d cells, want %d", len(r.Rows), failureCells)
	for _, row := range r.Rows {
		cell := fmt.Sprintf("%s %s repl=%d spec=%v", row.System, row.Phase, row.Replication, row.Speculation)
		switch {
		case row.Replication == 1:
			c.check(failureLostInput.MatchString(row.Outcome), "%s: want an abort on lost input, got %q", cell, row.Outcome)
		case !row.Completed():
			c = append(c, fmt.Sprintf("%s: want completed, got %q", cell, row.Outcome))
		case row.WithFailure <= row.Clean:
			c = append(c, fmt.Sprintf("%s: failure run (%.1f s) not slower than clean (%.1f s)", cell, float64(row.WithFailure), float64(row.Clean)))
		default:
			c.check(row.Overhead() <= failureMaxOverhead, "%s: overhead %.0f%% above %.0f%%", cell, row.Overhead()*100, failureMaxOverhead*100.0)
		}
	}
	return c.verdict("failure")
}

// Fprint renders the matrix.
func (r *FailureResult) Fprint(w io.Writer) {
	fprintf(w, "Extension: fail-stop of 1 of %d workers (sort, 20 GB), by phase × replication × speculation\n", failureMachines)
	fprintf(w, "%-12s %-7s %5s %5s %9s %13s %9s  %s\n",
		"system", "phase", "repl", "spec", "clean(s)", "w/ failure(s)", "overhead", "outcome")
	for _, row := range r.Rows {
		spec := "off"
		if row.Speculation {
			spec = "on"
		}
		overhead := "-"
		outcome := row.Outcome
		if row.Completed() {
			overhead = fprintfPct(row.Overhead())
		} else if len(outcome) > 60 {
			outcome = outcome[:57] + "..."
		}
		fprintf(w, "%-12s %-7s %5d %5s %9.1f %13.1f %9s  %s\n",
			row.System, row.Phase, row.Replication, spec,
			float64(row.Clean), float64(row.WithFailure), overhead, outcome)
	}
}

// fprintfPct renders a ratio as a percentage string.
func fprintfPct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
