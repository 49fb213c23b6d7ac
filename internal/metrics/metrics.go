// Package metrics turns device timelines and task records into the
// summaries the paper's figures report: box-plot percentiles of resource
// utilization (Fig. 6), utilization time series (Figs. 2 and 9), and
// OS-counter-style usage measurements over stage windows — the impoverished
// view of a Spark run that Figs. 16 and 17 are built from.
package metrics

import (
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

// BoxPlot is the five-number summary used in Fig. 6: 5th/25th/50th/75th/95th
// percentiles.
type BoxPlot struct {
	// P5, P25, P50, P75 and P95 are the 5th, 25th, 50th (median), 75th and
	// 95th percentiles.
	P5, P25, P50, P75, P95 float64
}

// Percentile returns the p-th percentile (0..100) of samples by linear
// interpolation between closest ranks. It does not modify samples. Callers
// extracting several percentiles from one distribution should sort once and
// use SortedPercentile instead — this convenience wrapper copies and sorts on
// every call.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return SortedPercentile(s, p)
}

// SortedPercentile is Percentile for samples already in ascending order,
// skipping the per-call copy and sort.
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	a, b := sorted[lo], sorted[lo+1]
	// a*(1-frac) + b*frac can round one ulp outside [a, b] ({11, 11} at
	// p = 21 gives 11.000000000000002), so clamp it back.
	v := a*(1-frac) + b*frac
	if v < a {
		return a
	}
	if v > b {
		return b
	}
	return v
}

// sortedBox summarizes samples already in ascending order as a BoxPlot.
func sortedBox(sorted []float64) BoxPlot {
	return BoxPlot{
		P5:  SortedPercentile(sorted, 5),
		P25: SortedPercentile(sorted, 25),
		P50: SortedPercentile(sorted, 50),
		P75: SortedPercentile(sorted, 75),
		P95: SortedPercentile(sorted, 95),
	}
}

// ResourceName identifies a utilization series.
type ResourceName string

const (
	// CPU is the processor utilization series.
	CPU ResourceName = "cpu"
	// Disk is the per-disk utilization series.
	Disk ResourceName = "disk"
	// Network is the NIC utilization series.
	Network ResourceName = "network"
	// Memory is the memory-bandwidth utilization series (machines with the
	// fourth-resource model enabled only).
	Memory ResourceName = "memory"
)

// UtilSamples pools utilization samples for one resource across all
// machines of c over [t0, t1): n samples per machine. Disk utilization is
// the mean across a machine's drives; network is the busier direction.
// Machines lacking the resource (diskless, no NIC) contribute nothing, and
// n ≤ 0 or an empty window returns nil — callers sampling live (the
// telemetry layer) hit both shapes routinely and must not panic or skew.
func UtilSamples(c *cluster.Cluster, r ResourceName, t0, t1 sim.Time, n int) []float64 {
	if c == nil || n <= 0 || t1 <= t0 {
		return nil
	}
	// One machine's worth of room past the pooled samples holds the
	// per-drive and per-direction samples AppendMachineUtilSamples folds in.
	out := make([]float64, 0, (len(c.Machines)+1)*n)
	for _, m := range c.Machines {
		out = AppendMachineUtilSamples(out, m, r, t0, t1, n)
	}
	return out
}

// MachineUtilSamples returns n utilization samples for one resource of one
// machine over [t0, t1), in a fresh slice. Disk is the mean across the
// machine's drives and network the busier NIC direction, as in UtilSamples.
// Returns nil when the machine lacks the resource, n ≤ 0, or the window is
// empty.
func MachineUtilSamples(m *cluster.Machine, r ResourceName, t0, t1 sim.Time, n int) []float64 {
	return AppendMachineUtilSamples(nil, m, r, t0, t1, n)
}

// AppendMachineUtilSamples appends MachineUtilSamples(m, r, t0, t1, n) to
// dst and returns the extended slice; dst comes back unchanged when the
// machine lacks the resource, n ≤ 0, or the window is empty. It needs no
// scratch buffer: a machine's drive samples and its two NIC directions are
// appended past the result, folded into it, and truncated away, so a caller
// that reuses dst across calls allocates nothing once dst has grown.
func AppendMachineUtilSamples(dst []float64, m *cluster.Machine, r ResourceName, t0, t1 sim.Time, n int) []float64 {
	if m == nil || n <= 0 || t1 <= t0 {
		return dst
	}
	switch r {
	case CPU:
		if m.CPU != nil {
			dst = m.CPU.Util.AppendSamples(dst, t0, t1, n)
		}
	case Disk:
		if len(m.Disks) == 0 {
			return dst
		}
		// The accumulator starts at zero; each drive's samples are appended
		// past it, added in, and truncated away.
		start := len(dst)
		dst = slices.Grow(dst, 2*n)[:start+n]
		clear(dst[start:])
		for _, d := range m.Disks {
			dst = d.Util.AppendSamples(dst, t0, t1, n)
			acc, drive := dst[start:start+n], dst[start+n:]
			for i, v := range drive {
				acc[i] += v / float64(len(m.Disks))
			}
			dst = dst[:start+n]
		}
	case Memory:
		if m.Memory != nil {
			dst = m.Memory.Util.AppendSamples(dst, t0, t1, n)
		}
	case Network:
		if m.NIC == nil {
			return dst
		}
		start := len(dst)
		dst = m.NIC.UtilIn.AppendSamples(slices.Grow(dst, 2*n), t0, t1, n)
		mid := len(dst)
		dst = m.NIC.UtilOut.AppendSamples(dst, t0, t1, n)
		in, eg := dst[start:mid], dst[mid:]
		// The two directions sample over the same window so the lengths
		// agree, but a hand-built NIC (tests, partial specs) may carry
		// uneven timelines; pairing beyond the shorter series would panic.
		k := min(len(in), len(eg))
		for i := 0; i < k; i++ {
			if eg[i] > in[i] {
				in[i] = eg[i]
			}
		}
		dst = dst[:start+k]
	}
	return dst
}

// mean averages a sample set.
func mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// StageUtilization is Fig. 6's per-stage summary: the most- and second-most
// utilized resources with box plots of their utilization.
type StageUtilization struct {
	// Bottleneck is the resource with the highest mean utilization.
	Bottleneck ResourceName
	// BottleneckBox summarizes the bottleneck's pooled samples.
	BottleneckBox BoxPlot
	// Second is the resource with the next-highest mean utilization.
	Second ResourceName
	// SecondBox summarizes the second resource's pooled samples.
	SecondBox BoxPlot
}

// StageUtil ranks the three resources (four on clusters that model memory)
// by mean utilization over [t0, t1) and returns box plots for the top two.
func StageUtil(c *cluster.Cluster, t0, t1 sim.Time, samplesPerMachine int) StageUtilization {
	names := []ResourceName{CPU, Disk, Network}
	for _, m := range c.Machines {
		if m.Memory != nil {
			// Only clusters that model memory rank it; on the rest the
			// series does not exist and must not perturb the top-2 ranking.
			names = append(names, Memory)
			break
		}
	}
	series := make([][]float64, len(names))
	for i, r := range names {
		series[i] = UtilSamples(c, r, t0, t1, samplesPerMachine)
	}
	return RankStage(names, series)
}

// RankStage is StageUtil's ranking over series already sampled: series[i]
// holds names[i]'s pooled samples (UtilSamples' layout), and at least two
// resources are given. It orders the resources by mean utilization, highest
// first with ties kept in names' order, and returns box plots of the top
// two. The means are taken before anything moves; the top two series are
// then sorted in place, so the caller must not need their order afterwards.
func RankStage(names []ResourceName, series [][]float64) StageUtilization {
	// Stable insertion sort of resource indices by descending mean: the
	// order sort.SliceStable gives, without allocating for the handful of
	// resources there are.
	var idxBuf [4]int
	var meanBuf [4]float64
	idx, means := idxBuf[:0], meanBuf[:0]
	for i, s := range series {
		idx = append(idx, i)
		means = append(means, mean(s))
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && means[idx[j]] > means[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	top, second := series[idx[0]], series[idx[1]]
	sort.Float64s(top)
	sort.Float64s(second)
	return StageUtilization{
		Bottleneck:    names[idx[0]],
		BottleneckBox: sortedBox(top),
		Second:        names[idx[1]],
		SecondBox:     sortedBox(second),
	}
}

// MeasuredUsage is what an external observer with OS counters can say about
// a window of cluster execution: CPU core-seconds consumed, disk bytes
// moved, network bytes received. This is the only per-stage resource
// information a Spark run exposes, and it is what the Spark-side models of
// Figs. 16–17 must work from.
type MeasuredUsage struct {
	// CPUSeconds is the core-seconds the CPUs were busy.
	CPUSeconds float64
	// DiskReadBytes is the bytes the drives read.
	DiskReadBytes int64
	// DiskWriteBytes is the bytes the drives wrote.
	DiskWriteBytes int64
	// NetBytes is the bytes the NICs received.
	NetBytes int64
	// MemBytes is memory-system traffic; zero (and omitted from JSON) on
	// clusters without the memory model, so existing streams stay
	// byte-identical.
	MemBytes int64 `json:"MemBytes,omitempty"`
}

// Measure snapshots cluster-wide resource use over [t0, t1). Machines
// missing a device (no CPU model, diskless, no NIC) contribute nothing for
// that resource.
func Measure(c *cluster.Cluster, t0, t1 sim.Time) MeasuredUsage {
	var u MeasuredUsage
	if c == nil || t1 <= t0 {
		return u
	}
	for _, m := range c.Machines {
		if m.CPU != nil {
			u.CPUSeconds += m.CPU.Util.Mean(t0, t1) * float64(m.CPU.Cores()) * float64(t1-t0)
		}
		for _, d := range m.Disks {
			u.DiskReadBytes += int64(d.ReadCum.Delta(t0, t1))
			u.DiskWriteBytes += int64(d.WriteCum.Delta(t0, t1))
		}
		if m.NIC != nil {
			u.NetBytes += int64(m.NIC.BytesInCum.Delta(t0, t1))
		}
		if m.Memory != nil {
			u.MemBytes += int64(m.Memory.TrafficCum.Delta(t0, t1))
		}
	}
	return u
}

// TaskSecondsInWindow sums one job's task occupancy overlapping [t0, t1) —
// the slot-seconds that Spark-side attribution splits usage by (Fig. 16),
// and the numerator of a scheduling pool's observed slot share. Task slots
// without metrics yet (attempts still in flight) are skipped, so the sum is
// safe to take mid-run.
func TaskSecondsInWindow(jm *task.JobMetrics, t0, t1 sim.Time) float64 {
	var sum float64
	for _, st := range jm.Stages {
		for _, tm := range st.Tasks {
			if tm == nil {
				continue
			}
			lo, hi := tm.Start, tm.End
			if t0 > lo {
				lo = t0
			}
			if t1 < hi {
				hi = t1
			}
			if hi > lo {
				sum += float64(hi - lo)
			}
		}
	}
	return sum
}

// Add accumulates another measurement (summing windows).
func (u MeasuredUsage) Add(v MeasuredUsage) MeasuredUsage {
	u.CPUSeconds += v.CPUSeconds
	u.DiskReadBytes += v.DiskReadBytes
	u.DiskWriteBytes += v.DiskWriteBytes
	u.NetBytes += v.NetBytes
	u.MemBytes += v.MemBytes
	return u
}
