package monospark

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/task"
	"repro/internal/trace"
)

// Collect evaluates the dataset and returns every record (partition order,
// deterministic) together with the run's performance record.
func (d *Dataset) Collect() ([]any, *JobRun, error) {
	return d.CollectContext(context.Background())
}

// CollectContext is Collect with cooperative cancellation: if ctx is
// cancelled (or its deadline passes) while the virtual cluster is
// simulating, the run aborts cleanly with an error that unwraps to the
// context's. The data plane has already executed by then — cancellation
// bounds the simulation, which is the expensive phase for large clusters.
// After a cancelled run the Context is spent (its engine holds the aborted
// jobs' undrained events); further actions return a descriptive error.
func (d *Dataset) CollectContext(ctx context.Context) ([]any, *JobRun, error) {
	stages, run, err := d.runAction(ctx, "collect", false)
	if err != nil {
		return nil, nil, err
	}
	last := stages[len(stages)-1]
	var out []any
	for _, p := range last.out {
		out = append(out, p...)
	}
	return out, run, nil
}

// Count evaluates the dataset and returns its record count.
func (d *Dataset) Count() (int64, *JobRun, error) {
	return d.CountContext(context.Background())
}

// CountContext is Count with cooperative cancellation (see CollectContext).
func (d *Dataset) CountContext(ctx context.Context) (int64, *JobRun, error) {
	stages, run, err := d.runAction(ctx, "count", false)
	if err != nil {
		return 0, nil, err
	}
	var n int64
	for _, p := range stages[len(stages)-1].out {
		n += int64(len(p))
	}
	return n, run, nil
}

// Reduce folds all records with f (associative, commutative) and returns
// the result, or an error on an empty dataset.
func (d *Dataset) Reduce(f func(a, b any) any) (any, *JobRun, error) {
	stages, run, err := d.runAction(context.Background(), "reduce", false)
	if err != nil {
		return nil, nil, err
	}
	var acc any
	first := true
	for _, p := range stages[len(stages)-1].out {
		for _, rec := range p {
			if first {
				acc = rec
				first = false
				continue
			}
			acc = f(acc, rec)
		}
	}
	if first {
		return nil, nil, fmt.Errorf("monospark: reduce of empty dataset")
	}
	return acc, run, nil
}

// CountByKey evaluates a Pair dataset and returns per-key record counts.
func (d *Dataset) CountByKey() (map[string]int64, *JobRun, error) {
	stages, run, err := d.runAction(context.Background(), "countByKey", false)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]int64)
	for _, p := range stages[len(stages)-1].out {
		for _, rec := range p {
			pair, ok := rec.(Pair)
			if !ok {
				return nil, nil, fmt.Errorf("monospark: CountByKey over non-Pair record %T", rec)
			}
			out[pair.Key]++
		}
	}
	return out, run, nil
}

// SaveAsTextFile evaluates the dataset, writes each partition as a block of
// the named output file on the distributed filesystem (paying output disk
// I/O), and returns the written lines.
func (d *Dataset) SaveAsTextFile(name string) ([]string, *JobRun, error) {
	stages, run, err := d.runAction(context.Background(), "save:"+name, true)
	if err != nil {
		return nil, nil, err
	}
	var lines []string
	for _, p := range stages[len(stages)-1].out {
		for _, rec := range p {
			lines = append(lines, fmt.Sprint(rec))
		}
	}
	return lines, run, nil
}

// runAction plans, evaluates, simulates, and packages a job under ctx's
// cancellation.
func (d *Dataset) runAction(ctx context.Context, action string, writesOutput bool) ([]*stagePlan, *JobRun, error) {
	c := d.ctx
	c.jobSeq++
	name := fmt.Sprintf("job%d-%s", c.jobSeq, action)
	stages := topo(plan(d))
	if err := evaluate(stages, writesOutput); err != nil {
		return nil, nil, err
	}
	spec, err := c.toJobSpec(name, stages)
	if err != nil {
		return nil, nil, err
	}
	jm, err := c.runJobContext(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	run := &JobRun{
		Name:     name,
		Mode:     c.cfg.Mode,
		metrics:  jm,
		faultLog: c.FaultEvents(),
		res:      model.ClusterResources(c.cluster),
	}
	return stages, run, nil
}

// JobRun is a finished job's performance record. In Monotasks mode it
// carries the full per-monotask breakdown, which powers Explain and
// Predict; the Spark modes record only task spans (the paper's point —
// §6.6).
type JobRun struct {
	Name string
	Mode Mode

	metrics *task.JobMetrics
	res     model.Resources
	// faultLog snapshots the Context's injected faults up to this run's end
	// (empty without Config.Chaos).
	faultLog []faults.Record
}

// FaultEvents returns the faults injected up to the end of this run, in
// injection order. Empty unless the Context was built with Config.Chaos.
func (r *JobRun) FaultEvents() []FaultRecord {
	out := make([]FaultRecord, len(r.faultLog))
	copy(out, r.faultLog)
	return out
}

// Duration is the job's simulated wall-clock time.
func (r *JobRun) Duration() time.Duration {
	return time.Duration(float64(r.metrics.Duration()) * float64(time.Second))
}

// StageDurations lists each stage's simulated duration in order.
func (r *JobRun) StageDurations() []time.Duration {
	out := make([]time.Duration, 0, len(r.metrics.Stages))
	for _, st := range r.metrics.Stages {
		out = append(out, time.Duration(float64(st.Duration())*float64(time.Second)))
	}
	return out
}

// profile builds the §6 model view. Only Monotasks runs have the monotask
// metrics the model needs.
func (r *JobRun) profile() (*model.JobProfile, error) {
	if r.Mode != Monotasks {
		return nil, fmt.Errorf("monospark: %v runs do not expose per-resource metrics; use Monotasks mode", r.Mode)
	}
	return model.FromMetrics(r.metrics, r.res), nil
}

// StageBreakdown is one stage's ideal per-resource completion times (§6.1).
type StageBreakdown struct {
	Stage     string
	Actual    time.Duration
	IdealCPU  time.Duration
	IdealDisk time.Duration
	IdealNet  time.Duration
	// IdealMem stays zero on clusters without the memory model.
	IdealMem   time.Duration
	Bottleneck string
}

// Explain returns the per-stage ideal resource times and bottlenecks.
func (r *JobRun) Explain() ([]StageBreakdown, error) {
	p, err := r.profile()
	if err != nil {
		return nil, err
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	var out []StageBreakdown
	for _, sp := range p.Stages {
		cpu, disk, net, mem := sp.IdealTimes(p.Res)
		out = append(out, StageBreakdown{
			Stage:      sp.Name,
			Actual:     secs(sp.ActualSeconds),
			IdealCPU:   secs(cpu),
			IdealDisk:  secs(disk),
			IdealNet:   secs(net),
			IdealMem:   secs(mem),
			Bottleneck: sp.Bottleneck(p.Res).String(),
		})
	}
	return out, nil
}

// Bottleneck names the job's dominant resource: the one whose ideal time,
// summed over stages, is largest.
func (r *JobRun) Bottleneck() (string, error) {
	p, err := r.profile()
	if err != nil {
		return "", err
	}
	var cpu, disk, net, mem float64
	for _, sp := range p.Stages {
		c, d, n, m := sp.IdealTimes(p.Res)
		cpu, disk, net, mem = cpu+c, disk+d, net+n, mem+m
	}
	switch {
	case disk >= cpu && disk >= net && disk >= mem:
		return "disk", nil
	case net >= cpu && net >= mem:
		return "network", nil
	case mem >= cpu:
		return "memory", nil
	default:
		return "cpu", nil
	}
}

// WriteTraceJSONL exports the run's monotask records, one JSON object per
// line. Only Monotasks runs can be traced.
func (r *JobRun) WriteTraceJSONL(w io.Writer) error {
	if r.Mode != Monotasks {
		return fmt.Errorf("monospark: %v runs have no monotask records to trace", r.Mode)
	}
	return trace.WriteJSONL(w, r.metrics)
}

// WriteChromeTrace exports the run in the Chrome trace-event format: open
// the file in chrome://tracing or Perfetto to see each machine's CPU, disk,
// and network lanes. Only Monotasks runs can be traced.
func (r *JobRun) WriteChromeTrace(w io.Writer) error {
	if r.Mode != Monotasks {
		return fmt.Errorf("monospark: %v runs have no monotask records to trace", r.Mode)
	}
	marks := make([]trace.Mark, 0, len(r.faultLog))
	for _, f := range r.faultLog {
		marks = append(marks, trace.Mark{
			At:      float64(f.At),
			Label:   fmt.Sprintf("%v: %s", f.Kind, f.Detail),
			Machine: f.Machine,
		})
	}
	return trace.WriteChromeTraceEvents(w, r.metrics, marks)
}

// Prediction is the answer to a what-if question about this run.
type Prediction struct {
	Current   time.Duration
	Predicted time.Duration
}

// Speedup is current/predicted (>1 means the change helps).
func (p Prediction) Speedup() float64 {
	if p.Predicted == 0 {
		return 0
	}
	return float64(p.Current) / float64(p.Predicted)
}

// Predict estimates this job's runtime under the given what-if changes
// (§6.2–§6.4). Construct changes with the perf package.
func (r *JobRun) Predict(whatifs ...model.WhatIf) (Prediction, error) {
	p, err := r.profile()
	if err != nil {
		return Prediction{}, err
	}
	pred := model.Predict(p, whatifs...)
	return Prediction{
		Current:   time.Duration(pred.ActualSeconds * float64(time.Second)),
		Predicted: time.Duration(pred.PredictedSeconds * float64(time.Second)),
	}, nil
}
