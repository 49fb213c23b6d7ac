// Package figures regenerates every table and figure in the paper's
// evaluation (§5–§7). Each FigNN function runs the corresponding experiment
// on the virtual cluster and returns a result that prints the same rows or
// series the paper reports, and whose Verify states the paper's claim at the
// tolerance EXPERIMENTS.md gives. The cmd/monobench binary is a thin wrapper
// over these functions; EXPERIMENTS.md records paper-vs-measured for each.
package figures

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Setup is how an experiment executes, as opposed to what it measures: how
// many of its grid cells run at once, and where each run's live telemetry
// goes. Every experiment function takes one, with a context whose
// cancellation or deadline aborts the experiment's runs cleanly.
type Setup struct {
	// Workers is how many grid cells run concurrently (internal/sweep);
	// below one runs them serially on the calling goroutine. Output is
	// byte-identical at every setting.
	Workers int
	// Telemetry, when set, attaches a live sampler (the zero
	// telemetry.Config) to every simulated run and receives the sampler
	// once the run finishes. Cells run on parallel workers, so it must be
	// safe for concurrent calls. A collector that needs a byte-stable file
	// across worker counts should serialize each sampler to its own chunk
	// and order chunks canonically (see cmd/monobench).
	Telemetry func(*telemetry.Sampler)
}

// observe attaches the setup's telemetry sink to o, unless o already
// carries its own sampler.
func (s Setup) observe(o run.Options) run.Options {
	if s.Telemetry != nil && o.Telemetry == nil {
		o.Telemetry = &telemetry.Config{}
		o.OnTelemetry = s.Telemetry
	}
	return o
}

// Builder produces a job for an environment (matches the workloads types).
type Builder func(*workloads.Env) (*task.JobSpec, error)

// RunResult is one completed execution with the cluster state retained so
// figures can query utilization timelines.
type RunResult struct {
	Cluster *cluster.Cluster
	Env     *workloads.Env
	Jobs    []*task.JobMetrics
}

// execute builds a fresh cluster, materializes each builder's job, submits
// them together (concurrent jobs), and drains the simulation under ctx.
func execute(ctx context.Context, s Setup, machines int, spec cluster.MachineSpec, o run.Options, builders ...Builder) (*RunResult, error) {
	specs := make([]cluster.MachineSpec, machines)
	for i := range specs {
		specs[i] = spec
	}
	return executeHetero(ctx, s, specs, o, builders...)
}

// executeHetero is execute with per-machine specs (straggler experiments).
func executeHetero(ctx context.Context, s Setup, specs []cluster.MachineSpec, o run.Options, builders ...Builder) (*RunResult, error) {
	c, err := cluster.NewHetero(specs)
	if err != nil {
		return nil, err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return nil, err
	}
	jobSpecs := make([]*task.JobSpec, 0, len(builders))
	for _, b := range builders {
		js, err := b(env)
		if err != nil {
			return nil, err
		}
		jobSpecs = append(jobSpecs, js)
	}
	jobs, err := run.JobsContext(ctx, c, env.FS, s.observe(o), jobSpecs...)
	if err != nil {
		return nil, err
	}
	return &RunResult{Cluster: c, Env: env, Jobs: jobs}, nil
}

// pctErr returns the signed relative error of predicted vs actual in percent.
func pctErr(predicted, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return (predicted - actual) / actual * 100
}

// claims collects the claims a result fails, for its Verify.
type claims []string

// check records the failed claim format describes unless ok.
func (c *claims) check(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

// verdict is nil when every claim held, or one error naming the
// experiment and each claim that failed.
func (c claims) verdict(experiment string) error {
	if len(c) == 0 {
		return nil
	}
	return fmt.Errorf("%s: verdict failed: %s", experiment, strings.Join(c, "; "))
}

// fprintf panics on write errors: figures print to stdout or a buffer, where
// a failed write is unrecoverable and not worth threading errors through
// every row printer.
func fprintf(w io.Writer, format string, args ...any) {
	if _, err := fmt.Fprintf(w, format, args...); err != nil {
		panic(err)
	}
}
