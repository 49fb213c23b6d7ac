package whatifsvc

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
)

// JobResult is one simulated job's outcome.
type JobResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Finished is false when the virtual deadline cut the job off.
	Finished bool `json:"finished"`
}

// ResourceRank is one entry of the aggregate bottleneck ranking: the
// cluster-wide ideal completion time the run's work demands of the resource
// (§6.1) — the largest is the bottleneck.
type ResourceRank struct {
	Resource     string  `json:"resource"`
	IdealSeconds float64 `json:"ideal_seconds"`
}

// JobShare is one job's slice of the run's contention, from model.Attribute.
type JobShare struct {
	Job       string  `json:"job"`
	CPUShare  float64 `json:"cpu_share"`
	DiskShare float64 `json:"disk_share"`
	NetShare  float64 `json:"net_share"`
}

// WhatIfAnswer is the model's verdict on one hypothetical change.
type WhatIfAnswer struct {
	Question         string  `json:"question"`
	CurrentSeconds   float64 `json:"current_seconds"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	Speedup          float64 `json:"speedup"`
}

// TelemetrySummary condenses the run's live snapshots.
type TelemetrySummary struct {
	Snapshots      int     `json:"snapshots"`
	WindowSeconds  float64 `json:"window_seconds"`
	FinalCaptured  bool    `json:"final_captured"`
	SnapshotEveryS float64 `json:"snapshot_every_s"`
}

// Response is the answer to one what-if request. It contains only slices and
// scalars (no maps), so json.Marshal renders it deterministically — the
// property the memo's byte-identity contract rests on.
type Response struct {
	Workload    string            `json:"workload"`
	Machines    int               `json:"machines"`
	Jobs        []JobResult       `json:"jobs"`
	Bottlenecks []ResourceRank    `json:"bottlenecks"`
	Attribution []JobShare        `json:"attribution,omitempty"`
	Predictions []WhatIfAnswer    `json:"predictions,omitempty"`
	Telemetry   *TelemetrySummary `json:"telemetry,omitempty"`
	// Aborted marks a partial answer: the virtual deadline fired and every
	// figure above covers only the simulated window [0, virtual_deadline].
	Aborted bool `json:"aborted,omitempty"`
}

// PanicError wraps a panic recovered from a session so the server can report
// it as a structured 500 without dying.
type PanicError struct {
	Value string
	Stack string
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("whatifsvc: session panicked: %s", e.Value)
}

// RunSession answers req on a fresh single-use virtual cluster, isolating
// panics: any panic inside the workload builder, the simulator, or the model
// comes back as a *PanicError instead of unwinding into the caller. A
// context/wall abort returns the context's error; a virtual-deadline abort
// returns a partial Response with Aborted set.
func RunSession(ctx context.Context, req *Request) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp = nil
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return runSession(ctx, req)
}

func machineSpec(c *ClusterSpec) cluster.MachineSpec {
	switch c.Hardware {
	case "ssd":
		return cluster.I2_2XLarge(1)
	case "ssd2":
		return cluster.I2_2XLarge(2)
	default:
		return cluster.M2_4XLarge()
	}
}

func buildCluster(c *ClusterSpec) (*cluster.Cluster, error) {
	base := machineSpec(c)
	specs := make([]cluster.MachineSpec, c.Machines)
	for i := range specs {
		specs[i] = base
		if i < c.DegradedMachines {
			specs[i] = base.Degraded(c.Degraded)
		}
	}
	return cluster.NewHetero(specs)
}

func buildJob(w *WorkloadSpec, env *workloads.Env, idx int) (*task.JobSpec, error) {
	name := fmt.Sprintf("%s-%d", w.Kind, idx)
	bytes := w.TotalMB * units.MB
	switch w.Kind {
	case "sort":
		vpk := w.ValuesPerKey
		if vpk == 0 {
			vpk = 10
		}
		return workloads.Sort{
			Name: name, TotalBytes: bytes, ValuesPerKey: vpk,
			MapTasks: w.MapTasks, ReduceTasks: w.ReduceTasks,
			InMemoryInput: w.InMemoryInput,
		}.Build(env)
	case "wordcount":
		return workloads.WordCount{
			Name: name, TotalBytes: bytes,
			ShuffleFraction: w.ShuffleFraction, OutputFraction: w.OutputFraction,
			ReduceTasks: w.ReduceTasks,
		}.Build(env)
	case "readcompute":
		tasks := w.NumTasks
		if tasks == 0 {
			tasks = 8 * env.Cluster.TotalCores()
		}
		return workloads.ReadCompute{
			Name: name, TotalBytes: bytes, NumTasks: tasks, CPUPerByte: w.CPUPerByte,
		}.Build(env)
	case ChaosKind:
		panic("chaos: injected session panic (workload kind " + ChaosKind + ")")
	default:
		return nil, fmt.Errorf("whatifsvc: unknown workload kind %q", w.Kind)
	}
}

func buildWhatIf(w *WhatIfSpec) model.WhatIf {
	switch w.Kind {
	case "scale_disk":
		return model.ScaleDiskBW(w.Factor)
	case "set_disk_bw":
		return model.SetDiskBW(w.Factor)
	case "scale_cluster":
		return model.ScaleCluster(w.Factor)
	case "scale_net":
		return model.ScaleNetBW(w.Factor)
	case "in_memory_input":
		return model.InMemoryInput{}
	case "infinitely_fast":
		switch w.Resource {
		case "disk":
			return model.InfinitelyFast(task.DiskResource)
		case "network":
			return model.InfinitelyFast(task.NetworkResource)
		default:
			return model.InfinitelyFast(task.CPUResource)
		}
	default:
		return nil
	}
}

func runSession(ctx context.Context, req *Request) (*Response, error) {
	c, err := buildCluster(&req.Cluster)
	if err != nil {
		return nil, err
	}
	if !req.Telemetry {
		// The answer reads only the metric records (model.FromMetrics,
		// model.Attribute); without a telemetry sampler nothing reads the
		// device and queue timelines, so none are recorded.
		c.StopTimelines()
	}
	return answer(ctx, req, c)
}

// answer runs req's workload on the fresh cluster c and builds the response.
func answer(ctx context.Context, req *Request, c *cluster.Cluster) (*Response, error) {
	env, err := workloads.NewEnv(c)
	if err != nil {
		return nil, err
	}
	n := req.Workload.Jobs
	if n <= 0 {
		n = 1
	}
	specs := make([]*task.JobSpec, n)
	for i := range specs {
		if specs[i], err = buildJob(&req.Workload, env, i); err != nil {
			return nil, err
		}
	}

	o := run.Options{
		Mode:     run.Monotasks,
		Deadline: sim.Time(req.VirtualDeadlineSeconds),
	}
	var sampler *telemetry.Sampler
	if req.Telemetry {
		o.Telemetry = &telemetry.Config{}
		o.OnTelemetry = func(s *telemetry.Sampler) { sampler = s }
	}
	ms, runErr := run.JobsContext(ctx, c, env.FS, o, specs...)
	aborted := false
	if runErr != nil {
		var aerr *run.AbortError
		if !errors.As(runErr, &aerr) {
			return nil, runErr
		}
		// A context (wall-clock) abort means the request ran out of budget:
		// no answer. A virtual-deadline abort is part of the question — the
		// caller asked for at most that much simulated time — so the partial
		// window is the answer.
		if ctx.Err() != nil {
			return nil, runErr
		}
		aborted = true
	}

	res := model.ClusterResources(c)
	resp := &Response{
		Workload: req.Workload.Kind,
		Machines: req.Cluster.Machines,
		Aborted:  aborted,
	}
	var end sim.Time
	for _, jm := range ms {
		finished := true
		if aborted && jm.End >= sim.Time(req.VirtualDeadlineSeconds) {
			finished = false
		}
		resp.Jobs = append(resp.Jobs, JobResult{
			Name:     jm.Name,
			Seconds:  float64(jm.Duration()),
			Finished: finished,
		})
		if jm.End > end {
			end = jm.End
		}
	}

	// Aggregate bottleneck ranking: cluster-wide ideal completion times for
	// the executed window, largest first.
	var cpu, disk, net, mem float64
	profiles := make([]*model.JobProfile, len(ms))
	for i, jm := range ms {
		profiles[i] = model.FromMetrics(jm, res)
		for _, sp := range profiles[i].Stages {
			ic, id, in, im := sp.IdealTimes(res)
			cpu, disk, net, mem = cpu+ic, disk+id, net+in, mem+im
		}
	}
	resp.Bottlenecks = []ResourceRank{
		{Resource: "cpu", IdealSeconds: cpu},
		{Resource: "disk", IdealSeconds: disk},
		{Resource: "network", IdealSeconds: net},
		{Resource: "memory", IdealSeconds: mem},
	}
	sort.SliceStable(resp.Bottlenecks, func(i, j int) bool {
		return resp.Bottlenecks[i].IdealSeconds > resp.Bottlenecks[j].IdealSeconds
	})

	// Per-job contention shares over the whole executed window (§6.4).
	if len(ms) > 1 {
		for _, a := range model.Attribute(ms, 0, end, res) {
			resp.Attribution = append(resp.Attribution, JobShare{
				Job: a.Name, CPUShare: a.CPUShare, DiskShare: a.DiskShare, NetShare: a.NetShare,
			})
		}
	}

	// What-if predictions ride the first job's profile (the jobs are
	// identical copies). A partial run has no trustworthy profile to
	// extrapolate from, so predictions are omitted when aborted.
	if !aborted && len(profiles) > 0 {
		for _, wi := range req.WhatIfs {
			w := buildWhatIf(&wi)
			if w == nil {
				continue
			}
			pred := model.Predict(profiles[0], w)
			ans := WhatIfAnswer{
				Question:         w.String(),
				CurrentSeconds:   pred.ActualSeconds,
				PredictedSeconds: pred.PredictedSeconds,
			}
			if pred.PredictedSeconds > 0 {
				ans.Speedup = pred.ActualSeconds / pred.PredictedSeconds
			}
			resp.Predictions = append(resp.Predictions, ans)
		}
	}

	if sampler != nil {
		snaps := sampler.Snapshots()
		ts := &TelemetrySummary{Snapshots: len(snaps), SnapshotEveryS: 1}
		for i := range snaps {
			if snaps[i].Final {
				ts.FinalCaptured = true
			}
			if f := float64(snaps[i].T1); f > ts.WindowSeconds {
				ts.WindowSeconds = f
			}
		}
		resp.Telemetry = ts
	}
	return resp, nil
}
