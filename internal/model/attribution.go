package model

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
)

// This file generalizes the paper's Fig. 16 from two jobs to N: when many
// jobs share a cluster, each job's monotask metrics attribute the cluster's
// resource use to that job exactly — each monotask belongs to exactly one
// job and records its own bytes and service time — where Spark can only
// split OS counters by slot occupancy (SlotShareAttribution), which is wrong
// whenever concurrent jobs have different resource profiles (§6.4).

// JobAttribution is one job's share of a window of cluster execution,
// computed purely from its monotask metrics.
type JobAttribution struct {
	Name string
	// Usage is the job's own resource consumption inside the window: CPU
	// monotask service seconds, disk bytes split read/write, network bytes.
	Usage metrics.MeasuredUsage
	// CPUShare, DiskShare, NetShare, MemShare are the job's fraction of all
	// attributed use of each resource across the concurrent jobs (0 when no
	// job used the resource). These are the live contention shares: "job 3
	// holds 61% of the disk traffic right now".
	CPUShare, DiskShare, NetShare, MemShare float64
	// IdealCPU, IdealDisk, IdealNet, IdealMem are the job's per-resource
	// ideal completion times for the attributed usage (§6.1): how long the
	// window's work would take if the job had the whole cluster's capacity
	// for that one resource. IdealMem stays zero on clusters without the
	// memory model.
	IdealCPU, IdealDisk, IdealNet, IdealMem float64
}

// Attribute divides a window [t0, t1) of concurrent execution between jobs
// using each job's monotask metrics. Monotasks partially overlapping the
// window contribute pro-rata. It is safe to call mid-run: task slots not yet
// finished hold nil metrics and are skipped, so the attribution is live —
// any moment of an N-job run can be explained while the jobs still execute.
func Attribute(jobs []*task.JobMetrics, t0, t1 sim.Time, res Resources) []JobAttribution {
	out := make([]JobAttribution, len(jobs))
	for i, jm := range jobs {
		out[i].Name = jm.Name
		out[i].Usage = windowUsage(jm, t0, t1)
		u := out[i].Usage
		if res.TotalCores > 0 {
			out[i].IdealCPU = u.CPUSeconds / res.TotalCores
		}
		if res.DiskBW > 0 {
			out[i].IdealDisk = float64(u.DiskReadBytes+u.DiskWriteBytes) / res.DiskBW
		}
		if res.NetBW > 0 {
			out[i].IdealNet = float64(u.NetBytes) / res.NetBW
		}
		if res.MemBW > 0 {
			out[i].IdealMem = float64(u.MemBytes) / res.MemBW
		}
	}
	var cpu, disk, net, mem float64
	for _, a := range out {
		cpu += a.Usage.CPUSeconds
		disk += float64(a.Usage.DiskReadBytes + a.Usage.DiskWriteBytes)
		net += float64(a.Usage.NetBytes)
		mem += float64(a.Usage.MemBytes)
	}
	for i := range out {
		if cpu > 0 {
			out[i].CPUShare = out[i].Usage.CPUSeconds / cpu
		}
		if disk > 0 {
			out[i].DiskShare = float64(out[i].Usage.DiskReadBytes+out[i].Usage.DiskWriteBytes) / disk
		}
		if net > 0 {
			out[i].NetShare = float64(out[i].Usage.NetBytes) / net
		}
		if mem > 0 {
			out[i].MemShare = float64(out[i].Usage.MemBytes) / mem
		}
	}
	return out
}

// windowUsage sums one job's monotask activity clipped to [t0, t1). Byte
// sums accumulate in float64 and round once per window: truncating each
// monotask's pro-rata share individually loses up to a byte per monotask, so
// adjacent windows [t0,tm)+[tm,t1) would undercount versus [t0,t1) — drift a
// tiling consumer (the telemetry sampler) sees immediately. With one rounding
// per window the tiled sum stays within half a byte per window of the whole.
func windowUsage(jm *task.JobMetrics, t0, t1 sim.Time) metrics.MeasuredUsage {
	var u metrics.MeasuredUsage
	var read, write, net, mem float64
	for _, sm := range jm.Stages {
		for _, tm := range sm.Tasks {
			if tm == nil {
				continue // attempt still in flight — live attribution
			}
			for _, m := range tm.Monotasks {
				f := overlapFraction(m.Start, m.End, t0, t1)
				if f == 0 {
					continue
				}
				switch m.Resource {
				case task.CPUResource:
					u.CPUSeconds += f * float64(m.End-m.Start)
					// The task's memory traffic pro-rates over its compute
					// monotask's span: the memory stream runs while the
					// core is held.
					mem += f * float64(tm.MemBytes)
				case task.DiskResource:
					switch m.Kind {
					case task.KindShuffleWrite, task.KindOutputWrite, task.KindMemSpill:
						write += f * float64(m.Bytes)
					default: // input reads and shuffle serve reads
						read += f * float64(m.Bytes)
					}
				case task.NetworkResource:
					net += f * float64(m.Bytes)
				}
			}
		}
	}
	u.DiskReadBytes = int64(math.Round(read))
	u.DiskWriteBytes = int64(math.Round(write))
	u.NetBytes = int64(math.Round(net))
	u.MemBytes = int64(math.Round(mem))
	return u
}

// overlapFraction is the fraction of span [s, e] inside window [t0, t1).
// An instantaneous span counts fully if its instant is inside the window.
func overlapFraction(s, e, t0, t1 sim.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	lo, hi := s, e
	if t0 > lo {
		lo = t0
	}
	if t1 < hi {
		hi = t1
	}
	if hi < lo {
		return 0
	}
	if e <= s { // instantaneous monotask
		if s >= t0 && s < t1 {
			return 1
		}
		return 0
	}
	return float64(hi-lo) / float64(e-s)
}

// AttributionError compares an attribution against ground truth and returns
// the relative error of the dominant byte resource (disk+network) plus CPU,
// whichever is larger — the Fig. 16 headline number. A resource unused in
// both is skipped; attributing usage to a resource the truth never touched
// (phantom attribution) counts as full (1.0) relative error — returning 0
// there, as an earlier version did, hid exactly the misattribution this
// metric exists to expose.
func AttributionError(got, truth metrics.MeasuredUsage) float64 {
	worst := 0.0
	rel := func(g, t float64) float64 {
		if t == 0 {
			if g == 0 {
				return 0
			}
			return 1
		}
		d := (g - t) / t
		if d < 0 {
			d = -d
		}
		return d
	}
	if e := rel(got.CPUSeconds, truth.CPUSeconds); e > worst {
		worst = e
	}
	if e := rel(float64(got.DiskReadBytes+got.DiskWriteBytes),
		float64(truth.DiskReadBytes+truth.DiskWriteBytes)); e > worst {
		worst = e
	}
	if e := rel(float64(got.NetBytes), float64(truth.NetBytes)); e > worst {
		worst = e
	}
	if e := rel(float64(got.MemBytes), float64(truth.MemBytes)); e > worst {
		worst = e
	}
	return worst
}
