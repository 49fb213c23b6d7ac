// Package model implements the paper's performance model (§6): per-stage
// ideal resource completion times computed from monotask runtimes, combined
// into job-time predictions for what-if questions about hardware and
// software changes, plus the two deliberately-impoverished Spark-side models
// (slot-based, Fig. 15; measured-utilization, Fig. 17) the paper compares
// against.
package model

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/task"
)

// Resources is the aggregate capacity the ideal times divide by (§6.1).
type Resources struct {
	TotalCores float64
	DiskBW     float64 // aggregate sequential disk bandwidth, bytes/s
	NetBW      float64 // aggregate unidirectional network bandwidth, bytes/s
	// MemBW is the aggregate memory-bandwidth ceiling, bytes/s; zero on
	// clusters without the memory model, which keeps the memory column out
	// of every ideal-time and bottleneck computation.
	MemBW float64
}

// ClusterResources extracts Resources from a virtual cluster.
func ClusterResources(c *cluster.Cluster) Resources {
	return Resources{
		TotalCores: float64(c.TotalCores()),
		DiskBW:     c.TotalDiskBW(),
		NetBW:      c.TotalNetBW(),
		MemBW:      c.TotalMemBW(),
	}
}

// StageProfile aggregates one stage's monotask times — everything the model
// needs to know about the stage.
type StageProfile struct {
	Name string
	// CPUSeconds is total compute monotask time.
	CPUSeconds float64
	// InputDeserSeconds is the deserialization share of CPUSeconds in
	// stages that read job input; storing input deserialized in memory
	// removes it (§6.3). Only measurable because compute monotasks report
	// the split — Spark cannot produce this number.
	InputDeserSeconds float64
	// DiskBytes is total disk traffic (reads + writes, all kinds).
	DiskBytes int64
	// InputReadBytes is the subset of DiskBytes that read job input;
	// storing input in memory removes it.
	InputReadBytes int64
	// NetBytes is total network traffic.
	NetBytes int64
	// MemBytes is total memory-system traffic recorded by compute monotasks;
	// zero on clusters without the memory model.
	MemBytes int64
	// ActualSeconds is the stage's measured wall-clock duration, which
	// predictions scale (§6.2: scaling corrects for unmodeled effects).
	ActualSeconds float64
}

// IdealTimes returns the stage's ideal per-resource completion times (§6.1).
// The memory column is zero unless the cluster models memory bandwidth.
func (s StageProfile) IdealTimes(res Resources) (cpu, disk, net, mem float64) {
	cpu = s.CPUSeconds / res.TotalCores
	if res.DiskBW > 0 {
		disk = float64(s.DiskBytes) / res.DiskBW
	}
	if res.NetBW > 0 {
		net = float64(s.NetBytes) / res.NetBW
	}
	if res.MemBW > 0 {
		mem = float64(s.MemBytes) / res.MemBW
	}
	return cpu, disk, net, mem
}

// ModelTime is the stage's ideal completion time: the maximum ideal resource
// time, skipping excluded resources (used for "infinitely fast X" bounds,
// §6.5).
func (s StageProfile) ModelTime(res Resources, exclude map[task.Resource]bool) float64 {
	cpu, disk, net, mem := s.IdealTimes(res)
	best := 0.0
	if !exclude[task.CPUResource] && cpu > best {
		best = cpu
	}
	if !exclude[task.DiskResource] && disk > best {
		best = disk
	}
	if !exclude[task.NetworkResource] && net > best {
		best = net
	}
	if !exclude[task.MemoryResource] && mem > best {
		best = mem
	}
	return best
}

// Bottleneck is the resource with the largest ideal time. Ties break
// disk > network > memory > CPU; with a zero memory column (clusters that do
// not model memory) the choice is identical to the three-resource rule.
func (s StageProfile) Bottleneck(res Resources) task.Resource {
	cpu, disk, net, mem := s.IdealTimes(res)
	switch {
	case disk >= cpu && disk >= net && disk >= mem:
		return task.DiskResource
	case net >= cpu && net >= mem:
		return task.NetworkResource
	case mem >= cpu:
		return task.MemoryResource
	default:
		return task.CPUResource
	}
}

// JobProfile is the model's view of one measured job run.
type JobProfile struct {
	Name   string
	Stages []StageProfile
	Res    Resources
	// exclusions marks resources treated as infinitely fast (set by the
	// InfinitelyFast what-if; job-wide, matching §6.5's bound).
	exclusions map[task.Resource]bool
}

// FromMetrics builds a JobProfile from a monotasks run: every number comes
// from monotask metrics, with no extra instrumentation — the point of §6.1.
func FromMetrics(jm *task.JobMetrics, res Resources) *JobProfile {
	p := &JobProfile{Name: jm.Name, Res: res}
	for _, sm := range jm.Stages {
		sp := StageProfile{
			Name:          sm.Spec.Name,
			CPUSeconds:    sm.MonotaskSeconds(task.CPUResource, -1),
			DiskBytes:     sm.MonotaskBytes(task.DiskResource, -1),
			NetBytes:      sm.MonotaskBytes(task.NetworkResource, -1),
			MemBytes:      sm.MonotaskMemBytes(),
			ActualSeconds: float64(sm.Duration()),
		}
		sp.InputReadBytes = sm.MonotaskBytes(task.DiskResource, task.KindInputRead)
		if sp.InputReadBytes > 0 || inputFromMem(sm.Spec) {
			for _, t := range sm.Tasks {
				if t == nil { // unfinished slot of an aborted run
					continue
				}
				for _, m := range t.Monotasks {
					if m.Kind == task.KindCompute {
						sp.InputDeserSeconds += sm.Spec.DeserCPU
					}
				}
			}
		}
		p.Stages = append(p.Stages, sp)
	}
	return p
}

func inputFromMem(s *task.StageSpec) bool { return s != nil && s.InputFromMem }

// ActualSeconds is the job's measured runtime (sum of stage durations).
func (p *JobProfile) ActualSeconds() float64 {
	var sum float64
	for _, s := range p.Stages {
		sum += s.ActualSeconds
	}
	return sum
}

// IdealSeconds is the modeled job runtime: the sum of stage maxima (§6.1).
func (p *JobProfile) IdealSeconds() float64 {
	var sum float64
	for _, s := range p.Stages {
		sum += s.ModelTime(p.Res, nil)
	}
	return sum
}

// clone deep-copies the profile so what-ifs can mutate freely.
func (p *JobProfile) clone() *JobProfile {
	q := *p
	q.Stages = append([]StageProfile(nil), p.Stages...)
	q.exclusions = make(map[task.Resource]bool, len(p.exclusions))
	for r, v := range p.exclusions {
		q.exclusions[r] = v
	}
	return &q
}

// WhatIf transforms a profile into the hypothetical configuration.
type WhatIf interface {
	Apply(p *JobProfile)
	fmt.Stringer
}

// StagePrediction explains one stage of a prediction.
type StagePrediction struct {
	Name             string
	ActualSeconds    float64
	OldModelSeconds  float64
	NewModelSeconds  float64
	PredictedSeconds float64
	OldBottleneck    task.Resource
	NewBottleneck    task.Resource
}

// Prediction is the answer to a what-if question.
type Prediction struct {
	Stages           []StagePrediction
	ActualSeconds    float64
	PredictedSeconds float64
}

// Predict answers a what-if question: each stage's measured runtime is
// scaled by the ratio of its new to old modeled time (§6.2), and the job
// prediction is the sum.
func Predict(p *JobProfile, whatifs ...WhatIf) Prediction {
	q := p.clone()
	for _, w := range whatifs {
		w.Apply(q)
	}
	var pred Prediction
	for i, old := range p.Stages {
		nw := q.Stages[i]
		sp := StagePrediction{
			Name:            old.Name,
			ActualSeconds:   old.ActualSeconds,
			OldModelSeconds: old.ModelTime(p.Res, excluded(p, old.Name)),
			NewModelSeconds: nw.ModelTime(q.Res, excluded(q, nw.Name)),
			OldBottleneck:   old.Bottleneck(p.Res),
			NewBottleneck:   nw.Bottleneck(q.Res),
		}
		if sp.OldModelSeconds > 0 {
			sp.PredictedSeconds = old.ActualSeconds * sp.NewModelSeconds / sp.OldModelSeconds
		} else {
			sp.PredictedSeconds = old.ActualSeconds
		}
		pred.Stages = append(pred.Stages, sp)
		pred.ActualSeconds += old.ActualSeconds
		pred.PredictedSeconds += sp.PredictedSeconds
	}
	return pred
}

// excluded returns the profile's resource exclusions (nil when no
// InfinitelyFast what-if has been applied).
func excluded(p *JobProfile, _ string) map[task.Resource]bool { return p.exclusions }
