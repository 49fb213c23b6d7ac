package figures

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/workloads"
)

// The memory experiment is the scale-up data-volume study from the
// in-memory-analytics papers (Awan et al.; "How Data Volume Affects Spark"):
// the same cached-scan job on one fat machine, swept over working-set sizes.
// Small volumes are CPU-bound; as the working set grows, cache-miss and
// GC-churn amplification push memory-system traffic up faster than CPU work,
// the reported bottleneck migrates from CPU to memory bandwidth, capacity
// pressure starts spilling task buffers to disk, and GC pauses stall the
// cores. Each row also reports the monotask attribution error against the
// machine's OS-counter view — in the memory-bound cells the compute
// monotasks' spans absorb memory stalls and GC pauses, so the error is real
// and must be reported, not hidden.

// MemoryRow is one data-volume cell of the sweep.
type MemoryRow struct {
	GB      float64
	Seconds float64
	// Ideal per-resource completion times (§6.1), memory included.
	IdealCPU, IdealDisk, IdealNet, IdealMem float64
	Bottleneck                              task.Resource
	// GCPauses counts stop-the-world events; SpillBytes is the task-buffer
	// overflow staged to disk; PeakResident is the capacity high-water mark.
	GCPauses     int
	SpillBytes   int64
	PeakResident int64
	// AttribErrPct is model.AttributionError between the job's monotask
	// attribution and the machine's measured counters, in percent.
	AttribErrPct float64
}

// MemoryResult is the experiment's full output.
type MemoryResult struct {
	Cores      int
	MemBWGBps  float64
	CapacityGB float64
	Rows       []MemoryRow
	MigratedAt float64 // first swept volume whose bottleneck is memory (0 if none)
}

// MemoryVolumes returns the swept working-set sizes in bytes. Smoke keeps
// one cell from each regime so CI still witnesses the migration.
func MemoryVolumes(smoke bool) []int64 {
	if smoke {
		return []int64{8 * units.GB, 64 * units.GB}
	}
	return []int64{8 * units.GB, 16 * units.GB, 32 * units.GB, 64 * units.GB, 128 * units.GB}
}

// Memory runs the data-volume sweep. Every cell is an independent simulation
// and goes through the sweep pool.
func Memory(ctx context.Context, setup Setup, smoke bool) (*MemoryResult, error) {
	spec := cluster.FatNode()
	volumes := MemoryVolumes(smoke)
	rows, err := sweep.Run(ctx, setup.Workers, len(volumes), func(i int) (MemoryRow, error) {
		return memoryCell(ctx, setup, spec, volumes[i])
	})
	if err != nil {
		return nil, err
	}
	out := &MemoryResult{
		Cores:      spec.Cores,
		MemBWGBps:  spec.Mem.BandwidthBPS / 1e9,
		CapacityGB: float64(spec.Mem.CapacityBytes) / float64(units.GB),
		Rows:       rows,
	}
	for _, r := range rows {
		if r.Bottleneck == task.MemoryResource {
			out.MigratedAt = r.GB
			break
		}
	}
	return out, nil
}

// memoryCell runs one working-set size on a fresh fat machine.
func memoryCell(ctx context.Context, setup Setup, spec cluster.MachineSpec, volume int64) (MemoryRow, error) {
	res, err := execute(ctx, setup, 1, spec, run.Options{Mode: run.Monotasks},
		func(env *workloads.Env) (*task.JobSpec, error) {
			return workloads.ScaleUp{TotalBytes: volume}.Build(env)
		})
	if err != nil {
		return MemoryRow{}, err
	}
	jm := res.Jobs[0]
	resources := model.ClusterResources(res.Cluster)
	profile := model.FromMetrics(jm, resources)

	row := MemoryRow{
		GB:      float64(volume) / float64(units.GB),
		Seconds: float64(jm.Duration()),
	}
	for _, sp := range profile.Stages {
		c, d, n, m := sp.IdealTimes(resources)
		row.IdealCPU += c
		row.IdealDisk += d
		row.IdealNet += n
		row.IdealMem += m
	}
	// Single-stage job: the stage bottleneck is the job bottleneck.
	row.Bottleneck = profile.Stages[0].Bottleneck(resources)

	for _, m := range res.Cluster.Machines {
		if m.Memory != nil {
			row.GCPauses += m.Memory.GCCount()
			if p := m.Memory.Peak(); p > row.PeakResident {
				row.PeakResident = p
			}
		}
	}
	for _, sm := range jm.Stages {
		row.SpillBytes += sm.MonotaskBytes(task.DiskResource, task.KindMemSpill)
	}

	// Attribution error: the job's monotask attribution vs the machine's
	// measured counters over the whole run. Memory-bound cells report a
	// genuine error — compute spans absorb memory stalls and GC pauses the
	// counters do not charge to CPU.
	att := model.Attribute([]*task.JobMetrics{jm}, 0, jm.End, resources)
	truth := metrics.Measure(res.Cluster, 0, jm.End)
	row.AttribErrPct = model.AttributionError(att[0].Usage, truth) * 100
	return row, nil
}

// Verify fails unless the sweep witnessed the bottleneck migrating from CPU
// to memory, the experiment's finding.
func (r *MemoryResult) Verify() error {
	if r.MigratedAt == 0 {
		return fmt.Errorf("memory: bottleneck never migrated to memory over %d swept volumes", len(r.Rows))
	}
	return nil
}

// Fprint renders the sweep table.
func (r *MemoryResult) Fprint(w io.Writer) {
	fprintf(w, "memory: scale-up data-volume sweep, 1 fat machine (%d cores, %.0f GB/s mem BW, %.0f GB capacity)\n",
		r.Cores, r.MemBWGBps, r.CapacityGB)
	fprintf(w, "%-8s %10s %8s %8s %8s %8s %11s %6s %10s %10s %8s\n",
		"data", "actual(s)", "cpu*", "disk*", "net*", "mem*", "bottleneck", "gc", "spill", "peak-res", "err%")
	for _, row := range r.Rows {
		fprintf(w, "%-8s %10.1f %8.1f %8.1f %8.1f %8.1f %11v %6d %10s %10s %8.1f\n",
			units.FormatBytes(int64(row.GB*float64(units.GB))), row.Seconds,
			row.IdealCPU, row.IdealDisk, row.IdealNet, row.IdealMem,
			row.Bottleneck, row.GCPauses,
			units.FormatBytes(row.SpillBytes), units.FormatBytes(row.PeakResident),
			row.AttribErrPct)
	}
	if r.MigratedAt > 0 {
		fprintf(w, "bottleneck migrates CPU -> memory at %.0f GB (papers' data-volume finding)\n", r.MigratedAt)
	} else {
		fprintf(w, "bottleneck never migrated to memory over this sweep\n")
	}
}

// CSV exports the table.
func (r *MemoryResult) CSV() *CSVTable {
	t := &CSVTable{Name: "memory", Header: []string{
		"gb", "seconds", "ideal_cpu_s", "ideal_disk_s", "ideal_net_s", "ideal_mem_s",
		"bottleneck", "gc_pauses", "spill_bytes", "peak_resident_bytes", "attrib_err_pct",
	}}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.GB), f1(row.Seconds), f3(row.IdealCPU), f3(row.IdealDisk), f3(row.IdealNet), f3(row.IdealMem),
			row.Bottleneck.String(), fmt.Sprintf("%d", row.GCPauses),
			fmt.Sprintf("%d", row.SpillBytes), fmt.Sprintf("%d", row.PeakResident), f1(row.AttribErrPct)})
	}
	return t
}
