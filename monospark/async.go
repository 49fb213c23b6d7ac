package monospark

import (
	"context"
	"fmt"

	"repro/internal/jobsched"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/task"
)

// Multi-job scheduling re-exports: pools are declared in Config.Pools and jobs
// are tagged with JobOptions at async submission. The types live in
// internal/jobsched; the aliases make them usable outside the module.
type (
	// PoolConfig declares one scheduling pool (name, fair-share weight,
	// intra-pool policy, admission limit).
	PoolConfig = jobsched.PoolConfig
	// PoolPolicy orders jobs within one pool.
	PoolPolicy = jobsched.PoolPolicy
	// JobAttribution is one job's share of the cluster use measured over a
	// window, with the per-resource shares each job was responsible for.
	JobAttribution = model.JobAttribution
)

// Pool policies, re-exported for Config.Pools.
const (
	PoolFairShare = jobsched.FairShare
	PoolFIFO      = jobsched.FIFO
)

// DefaultPool is where untagged jobs run (always exists).
const DefaultPool = jobsched.DefaultPool

// JobOptions tags one async submission for the multi-tenant scheduler.
type JobOptions struct {
	// Pool names the scheduling pool (DefaultPool when empty). The pool must
	// be declared in Config.Pools unless it is DefaultPool.
	Pool string
	// Priority orders jobs within their pool; higher dispatches first.
	Priority int
	// DeadlineSeconds is the job's target completion time in virtual seconds;
	// at equal priority, earlier deadlines dispatch first (0 = none).
	DeadlineSeconds float64
}

// AsyncAction is a job submitted with an Async action but not yet simulated.
// Its data plane has already run (records flowed through your functions when
// the Async method returned); the virtual cluster executes it — concurrently
// with every other pending action — when Context.Await is called.
type AsyncAction struct {
	Name string
	Opts JobOptions

	ctx    *Context
	spec   *task.JobSpec
	stages []*stagePlan
	done   bool
	err    error
	run    *JobRun
}

// CollectAsync queues the dataset for concurrent execution; the records and
// performance profile become available after Context.Await.
func (d *Dataset) CollectAsync(opts JobOptions) (*AsyncAction, error) {
	return d.ctx.submitAsync(d, "collect", false, opts)
}

// CountAsync queues a count of the dataset for concurrent execution.
func (d *Dataset) CountAsync(opts JobOptions) (*AsyncAction, error) {
	return d.ctx.submitAsync(d, "count", false, opts)
}

// submitAsync evaluates the data plane now and parks the priced job spec on
// the Context until Await builds the shared multi-job driver.
func (c *Context) submitAsync(d *Dataset, action string, writesOutput bool, opts JobOptions) (*AsyncAction, error) {
	c.jobSeq++
	name := fmt.Sprintf("job%d-%s", c.jobSeq, action)
	stages := topo(plan(d))
	if err := evaluate(stages, writesOutput); err != nil {
		return nil, err
	}
	spec, err := c.toJobSpec(name, stages)
	if err != nil {
		return nil, err
	}
	a := &AsyncAction{Name: name, Opts: opts, ctx: c, spec: spec, stages: stages}
	c.pendingAsync = append(c.pendingAsync, a)
	return a, nil
}

// Await runs every pending async action on one shared driver: the jobs
// compete for executor slots under the pool weights declared in Config.Pools,
// exactly like concurrent jobs on one Spark cluster. It returns the JobRuns
// of the actions that succeeded (in submission order) and the first error any
// action hit; per-action results stay available on each AsyncAction either
// way. Await with nothing pending is a no-op.
func (c *Context) Await() ([]*JobRun, error) {
	return c.AwaitContext(context.Background())
}

// AwaitContext is Await with cooperative cancellation: if ctx is cancelled
// while the shared driver is simulating, the batch aborts between event
// batches — every in-flight action fails with an error that unwraps to the
// context's, completed actions keep their results, and the Context becomes
// unusable for further runs (its engine holds the aborted jobs' undrained
// events; create a fresh Context to continue).
func (c *Context) AwaitContext(ctx context.Context) ([]*JobRun, error) {
	if len(c.pendingAsync) == 0 {
		return nil, nil
	}
	if err := c.usable(); err != nil {
		return nil, err
	}
	batch := c.pendingAsync
	c.pendingAsync = nil
	d, err := c.driver()
	if err != nil {
		return nil, err
	}
	handles := make([]*jobsched.JobHandle, len(batch))
	var firstErr error
	for i, a := range batch {
		h, err := d.SubmitWith(a.spec, jobsched.SubmitOptions{
			Pool:     a.Opts.Pool,
			Priority: a.Opts.Priority,
			Deadline: sim.Time(a.Opts.DeadlineSeconds),
		})
		if err != nil {
			a.done, a.err = true, err
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		handles[i] = h
	}
	if _, aerr := c.drain(ctx, d); aerr != nil && firstErr == nil {
		firstErr = aerr
	}
	var runs []*JobRun
	for i, a := range batch {
		h := handles[i]
		if h == nil {
			continue
		}
		a.done = true
		if err := h.Err(); err != nil {
			a.err = err
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		a.run = &JobRun{
			Name:     a.Name,
			Mode:     c.cfg.Mode,
			metrics:  h.Metrics,
			faultLog: c.FaultEvents(),
			res:      model.ClusterResources(c.cluster),
		}
		runs = append(runs, a.run)
	}
	return runs, firstErr
}

// Done reports whether the action has been executed by Await.
func (a *AsyncAction) Done() bool { return a.done }

// Err returns the action's failure, if any (nil before Await).
func (a *AsyncAction) Err() error { return a.err }

// Run returns the action's performance record once Await has executed it.
func (a *AsyncAction) Run() (*JobRun, error) {
	if !a.done {
		return nil, fmt.Errorf("monospark: %s not yet executed; call Context.Await", a.Name)
	}
	if a.err != nil {
		return nil, a.err
	}
	return a.run, nil
}

// Records returns the action's output records (partition order), once
// executed. For CountAsync actions prefer Count.
func (a *AsyncAction) Records() ([]any, error) {
	if _, err := a.Run(); err != nil {
		return nil, err
	}
	last := a.stages[len(a.stages)-1]
	var out []any
	for _, p := range last.out {
		out = append(out, p...)
	}
	return out, nil
}

// Count returns the action's output record count, once executed.
func (a *AsyncAction) Count() (int64, error) {
	if _, err := a.Run(); err != nil {
		return 0, err
	}
	var n int64
	for _, p := range a.stages[len(a.stages)-1].out {
		n += int64(len(p))
	}
	return n, nil
}

// Attribution splits the cluster use measured over virtual seconds [t0, t1)
// among the given concurrent runs, reporting each job's exact per-resource
// share (the §6.4 / Fig. 16 accounting, generalized to N jobs). Monotasks
// runs only: the Spark modes don't record the per-resource spans this needs.
func (c *Context) Attribution(runs []*JobRun, t0, t1 float64) ([]JobAttribution, error) {
	jms := make([]*task.JobMetrics, len(runs))
	for i, r := range runs {
		if r.Mode != Monotasks {
			return nil, fmt.Errorf("monospark: %v runs have no per-resource metrics to attribute", r.Mode)
		}
		jms[i] = r.metrics
	}
	return model.Attribute(jms, sim.Time(t0), sim.Time(t1), model.ClusterResources(c.cluster)), nil
}
