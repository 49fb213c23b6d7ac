// Package run wires a cluster, an executor mode, and a driver together —
// the shared entry point for experiments, benchmarks, and the public API.
package run

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/faults"
	"repro/internal/jobsched"
	"repro/internal/pipeexec"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// Mode selects the execution model.
type Mode int

const (
	// Monotasks is MonoSpark: per-resource schedulers, write-through disk
	// monotasks (§3).
	Monotasks Mode = iota
	// Spark is the pipelined baseline: slots, fine-grained pipelining,
	// buffer-cache writes (§2).
	Spark
	// SparkWriteThrough is Spark with the OS configured to flush writes to
	// disk promptly — the second Spark configuration of Fig. 5. Writes still
	// pipeline through the cache, but the dirty limits are tiny, so the job
	// pays for its writes before it can finish.
	SparkWriteThrough
)

// String names the executor mode.
func (m Mode) String() string {
	switch m {
	case Monotasks:
		return "monospark"
	case Spark:
		return "spark"
	case SparkWriteThrough:
		return "spark-flush"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configure a run.
type Options struct {
	// Mode selects the executor every machine runs.
	Mode Mode
	// TasksPerMachine overrides the Spark slot count (Fig. 18's knob).
	// Ignored by Monotasks, which configures concurrency per resource.
	TasksPerMachine int
	// Mono tunes the monotasks executor further.
	Mono core.Options
	// Faults, when set, is the run's fault injector. Every driver this
	// package builds installs its plan on the cluster engine (once; later
	// drivers on the same engine reuse it) and binds the driver, so the
	// plan's crashes, slowdowns and task kills fire and the driver decides
	// each attempt against its probability windows before launching it.
	// Executors never see the injector: Executors ignores this field.
	Faults *faults.Injector
	// Sched configures the driver: its resilience and speculation policies
	// and its scheduling pools.
	Sched jobsched.Config
	// Telemetry, when set, attaches a live sampler to the run's engine so the
	// run emits periodic snapshots (utilization, pool state, per-job
	// attribution) while it executes.
	Telemetry *telemetry.Config
	// OnTelemetry receives the run's sampler once the jobs finish — the hook
	// callers use to collect the snapshot ring. Only called when Telemetry is
	// set.
	OnTelemetry func(*telemetry.Sampler)
	// Deadline, when positive, bounds the run in virtual time: once the
	// simulation clock passes it the run aborts with an *AbortError carrying
	// the partial results accumulated so far. Wall-clock bounds come from
	// the context passed to the run (context.WithTimeout).
	Deadline sim.Time
}

// AbortError reports a run cancelled mid-flight — by its context (cancelled
// or past its deadline) or by a virtual deadline. The run's partial results are still
// returned alongside it: every job metrics slice is well-formed, with
// unfinished jobs marked failed and end-stamped at the abort time.
type AbortError struct {
	// Reason is the underlying cause (context.Canceled,
	// context.DeadlineExceeded, or a deadline description).
	Reason error
	// At is the virtual time the abort fired.
	At sim.Time
}

// Error describes the abort.
func (e *AbortError) Error() string {
	return fmt.Sprintf("run: aborted at virtual t=%.3fs: %v", float64(e.At), e.Reason)
}

// Unwrap exposes the cause, so errors.Is(err, context.DeadlineExceeded)
// works through an AbortError.
func (e *AbortError) Unwrap() error { return e.Reason }

// errVirtualDeadline is the Reason for virtual-time deadline aborts. It
// matches context.DeadlineExceeded via errors.Is for callers that treat all
// deadline shapes alike.
var errVirtualDeadline = fmt.Errorf("virtual deadline exceeded: %w", context.DeadlineExceeded)

// installAbort arms the engine's abort check for ctx and o.Deadline,
// returning a disarm function. When no cancellation source is configured the
// engine is left untouched (the uninstrumented hot path).
//
// The poll interval depends on the source: a virtual deadline is checked at
// every event boundary, so the abort lands deterministically on the first
// event past the deadline (cheap — one clock comparison); a context —
// cancelled or past its wall-clock deadline — is polled over the engine's
// default batch, since its firing time is not reproducible anyway.
func installAbort(ctx context.Context, e *sim.Engine, o Options) func() {
	done := ctx.Done()
	if done == nil && o.Deadline <= 0 {
		return func() {}
	}
	every := sim.DefaultAbortInterval
	if o.Deadline > 0 {
		every = 1
	}
	check := func() error {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if o.Deadline > 0 && e.Now() > o.Deadline {
			return errVirtualDeadline
		}
		return nil
	}
	e.SetAbortCheck(every, check)
	return func() { e.SetAbortCheck(0, nil) }
}

// Drain runs d's jobs on c until the engine's queue empties, under ctx and
// o.Deadline, and returns the driver's job metrics in submission order. In
// order it arms the engine's abort check, runs, and disarms. If the run was
// cut short, it then fails every unfinished job with the returned
// *AbortError, so handles and metrics stay well-formed, and re-arms the
// engine for reuse. An uncancelled run is byte-identical to d.Run().
func Drain(ctx context.Context, c *cluster.Cluster, d *jobsched.Driver, o Options) ([]*task.JobMetrics, error) {
	e := c.Engine
	disarm := installAbort(ctx, e, o)
	ms := d.Run()
	disarm()
	reason := e.AbortErr()
	if reason == nil {
		return ms, nil
	}
	e.ClearAbort()
	aerr := &AbortError{Reason: reason, At: e.Now()}
	d.AbortAll(aerr)
	return ms, aerr
}

// errTelemetryStopped refuses a telemetry sampler on a cluster whose
// timelines are stopped: every snapshot would read empty timelines.
var errTelemetryStopped = errors.New("run: Options.Telemetry needs the cluster's timelines, which are stopped")

// startTelemetry attaches a sampler per Options, returning a finish hook.
func (o Options) startTelemetry(c *cluster.Cluster, d *jobsched.Driver) func() {
	if o.Telemetry == nil {
		return func() {}
	}
	s := telemetry.Start(c, d, *o.Telemetry)
	return func() {
		s.Stop()
		if o.OnTelemetry != nil {
			o.OnTelemetry(s)
		}
	}
}

// Executors builds one executor per machine of c in the requested mode.
func Executors(c *cluster.Cluster, o Options) []task.Executor {
	execs, _ := executors(c, o)
	return execs
}

// executors is Executors that also returns the monotasks workers it built
// (nil in the Spark modes), for a caller that retires them after its run.
func executors(c *cluster.Cluster, o Options) ([]task.Executor, *core.Group) {
	execs := make([]task.Executor, c.Size())
	switch o.Mode {
	case Monotasks:
		g := core.NewGroup(c, o.Mono)
		for i, w := range g.Workers {
			execs[i] = w
		}
		return execs, g
	default:
		po := pipeexec.Options{TasksPerMachine: o.TasksPerMachine}
		if o.Mode == SparkWriteThrough {
			// Force prompt writeback: a tiny dirty budget throttles writers
			// to the flusher's pace without serializing each chunk.
			po.DirtyLimit = 8 << 20
			po.FlushDelay = 0.1
		}
		g := pipeexec.NewGroup(c, po)
		for i, w := range g.Workers {
			execs[i] = w
		}
	}
	return execs, nil
}

// Driver builds a ready driver over c in the requested mode.
func Driver(c *cluster.Cluster, fs *dfs.FS, o Options) (*jobsched.Driver, error) {
	return DriverWith(c, fs, Executors(c, o), o)
}

// DriverWith builds a driver configured by o.Sched over pre-built executors
// (callers that keep executor handles for inspection, or that run several
// drivers over one set of executors). It installs o.Faults on the engine
// and binds it to the new driver, which from then on decides every attempt
// it launches against the plan's probability windows, whatever executors it
// was given; an injector whose plan has an event before the engine clock is
// an error.
func DriverWith(c *cluster.Cluster, fs *dfs.FS, execs []task.Executor, o Options) (*jobsched.Driver, error) {
	d, err := jobsched.NewWithConfig(c, fs, execs, o.Sched)
	if err != nil {
		return nil, err
	}
	if o.Faults != nil {
		if err := o.Faults.Install(); err != nil {
			return nil, err
		}
		o.Faults.Bind(d)
	}
	return d, nil
}

// ownedDriver builds a driver as Driver does, for a run that owns its
// executors: retire, called once the run has drained, hands the monotasks
// workers' free lists to the next run's workers (core.Group.Retire). It
// refuses Options.Telemetry on a cluster whose timelines are stopped.
func ownedDriver(c *cluster.Cluster, fs *dfs.FS, o Options) (d *jobsched.Driver, retire func(), err error) {
	if o.Telemetry != nil && c.TimelinesStopped() {
		return nil, nil, errTelemetryStopped
	}
	execs, g := executors(c, o)
	if d, err = DriverWith(c, fs, execs, o); err != nil {
		return nil, nil, err
	}
	retire = func() {}
	if g != nil {
		retire = g.Retire
	}
	return d, retire, nil
}

// JobsContext executes specs (submitted together, so they run concurrently)
// and returns their metrics in submission order. The run aborts cleanly when
// ctx is done or the virtual Options.Deadline passes, returning the partial
// metrics together with an *AbortError (unfinished jobs are marked failed
// and end-stamped at the abort time). The check rides the engine's event
// loop, so an un-cancelled run is byte-identical to one executed without a
// context.
func JobsContext(ctx context.Context, c *cluster.Cluster, fs *dfs.FS, o Options, specs ...*task.JobSpec) ([]*task.JobMetrics, error) {
	d, retire, err := ownedDriver(c, fs, o)
	if err != nil {
		return nil, err
	}
	finish := o.startTelemetry(c, d)
	defer finish()
	for _, s := range specs {
		if _, err := d.Submit(s); err != nil {
			return nil, err
		}
	}
	ms, err := Drain(ctx, c, d, o)
	retire()
	return ms, err
}

// Submission is one job of an open-loop arrival schedule: a spec, the
// virtual time it arrives at the driver, and its scheduling tags.
type Submission struct {
	// Spec is the job to submit.
	Spec *task.JobSpec
	// At is the virtual time the job arrives.
	At sim.Time
	// Opts carries the job's pool, priority and deadline.
	Opts jobsched.SubmitOptions
}

// JobsAtContext executes an arrival schedule: each job is submitted at its
// arrival time while the cluster runs, without waiting for earlier jobs (an
// open loop — the load does not back off when the cluster falls behind).
// Returns the job handles in schedule order; handle metrics measure sojourn
// time (admission queueing included) from each job's arrival. Cancellation
// through ctx and the virtual Options.Deadline works as in JobsContext. A
// submission that arrives before the cluster clock is rejected up front — it
// cannot be scheduled, and letting it reach the engine would panic.
func JobsAtContext(ctx context.Context, c *cluster.Cluster, fs *dfs.FS, o Options, subs []Submission) ([]*jobsched.JobHandle, error) {
	for i, s := range subs {
		if s.Spec == nil {
			return nil, fmt.Errorf("run: submission %d has no job spec", i)
		}
		if s.At < c.Engine.Now() {
			return nil, fmt.Errorf("run: submission %d (%q) arrives at t=%v, before the cluster clock %v", i, s.Spec.Name, s.At, c.Engine.Now())
		}
	}
	d, retire, err := ownedDriver(c, fs, o)
	if err != nil {
		return nil, err
	}
	finish := o.startTelemetry(c, d)
	defer finish()
	handles := make([]*jobsched.JobHandle, len(subs))
	var submitErr error
	for i, s := range subs {
		i, s := i, s
		c.Engine.At(s.At, func() {
			h, err := d.SubmitWith(s.Spec, s.Opts)
			if err != nil && submitErr == nil {
				submitErr = fmt.Errorf("run: submitting job %d (%q): %w", i, s.Spec.Name, err)
			}
			handles[i] = h
		})
	}
	_, aerr := Drain(ctx, c, d, o)
	retire()
	if submitErr != nil {
		return nil, submitErr
	}
	return handles, aerr
}
