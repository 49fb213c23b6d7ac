// Package figures regenerates every table and figure in the paper's
// evaluation (§5–§7). Each FigNN function runs the corresponding experiment
// on the virtual cluster and returns a result that prints the same rows or
// series the paper reports. The cmd/monobench binary and bench_test.go are
// thin wrappers over these functions; EXPERIMENTS.md records paper-vs-
// measured for each.
package figures

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Telemetry hook: when set, every executed figure run (and every chaos cell)
// attaches a live sampler and hands the finished sampler to sink. Sweep cells
// run on parallel workers, so sink must be safe for concurrent calls; the
// config is shared read-only across runs (leave Config.OnSnapshot nil and
// read each sampler's ring from the sink instead). Collectors that need a
// byte-stable file across --parallel worker counts should serialize each
// sampler to its own chunk and order chunks canonically (see monobench).
var (
	telemetryCfg  *telemetry.Config
	telemetrySink func(*telemetry.Sampler)
)

// SetTelemetry installs (or, with a nil cfg, clears) the telemetry hook. Not
// safe to call while experiments run.
func SetTelemetry(cfg *telemetry.Config, sink func(*telemetry.Sampler)) {
	telemetryCfg = cfg
	telemetrySink = sink
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
// them together (concurrent jobs), and drains the simulation.
func execute(machines int, spec cluster.MachineSpec, o run.Options, builders ...Builder) (*RunResult, error) {
	specs := make([]cluster.MachineSpec, machines)
	for i := range specs {
		specs[i] = spec
	}
	return executeHetero(specs, o, builders...)
}

// executeHetero is execute with per-machine specs (straggler experiments).
func executeHetero(specs []cluster.MachineSpec, o run.Options, builders ...Builder) (*RunResult, error) {
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
	if cfg := telemetryCfg; cfg != nil {
		o.Telemetry = cfg
		o.OnTelemetry = telemetrySink
	}
	// A sweep deadline (monobench --timeout) bounds in-flight cells too: the
	// run layer polls it between event batches and aborts cleanly, so a
	// stuck cell fails with a deadline error instead of hanging the sweep.
	if t := sweep.Deadline(); !t.IsZero() && o.WallDeadline.IsZero() {
		o.WallDeadline = t
	}
	jobs, err := run.Jobs(c, env.FS, o, jobSpecs...)
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

// fprintf panics on write errors: figures print to stdout or a buffer, where
// a failed write is unrecoverable and not worth threading errors through
// every row printer.
func fprintf(w io.Writer, format string, args ...any) {
	if _, err := fmt.Fprintf(w, format, args...); err != nil {
		panic(err)
	}
}
