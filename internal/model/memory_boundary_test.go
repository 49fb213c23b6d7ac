package model

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/task"
)

// Boundary behavior for the fourth resource: every model entry point must
// degrade to the original three-resource arithmetic when memory is not
// modeled (MemBW == 0), with no NaN, Inf, or phantom memory column.

func TestIdealTimesMemorylessCluster(t *testing.T) {
	s := StageProfile{CPUSeconds: 80, DiskBytes: 4e9, NetBytes: 1e9, MemBytes: 7e9}
	res := Resources{TotalCores: 8, DiskBW: 1e9, NetBW: 1e9} // MemBW unset
	cpu, disk, net, mem := s.IdealTimes(res)
	if mem != 0 {
		t.Fatalf("memoryless cluster produced nonzero ideal-mem %v", mem)
	}
	for name, v := range map[string]float64{"cpu": cpu, "disk": disk, "net": net} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("ideal %s is %v with MemBW unset", name, v)
		}
	}
	if b := s.Bottleneck(res); b == task.MemoryResource {
		t.Fatal("memoryless cluster reported a memory bottleneck")
	}
}

// TestBottleneckMemorylessMatchesTrio: with the memory column at zero the
// four-way tie-break must reduce to the original disk > network > CPU rule
// for every ordering of the other three.
func TestBottleneckMemorylessMatchesTrio(t *testing.T) {
	res := Resources{TotalCores: 1, DiskBW: 1, NetBW: 1}
	cases := []struct {
		cpu  float64
		disk int64
		net  int64
		want task.Resource
	}{
		{10, 5, 3, task.CPUResource},
		{3, 10, 5, task.DiskResource},
		{3, 5, 10, task.NetworkResource},
		{5, 5, 5, task.DiskResource},    // full tie -> disk
		{5, 3, 5, task.NetworkResource}, // net ties cpu -> net
		{0, 0, 0, task.DiskResource},    // degenerate all-zero -> disk wins ties
	}
	for _, c := range cases {
		s := StageProfile{CPUSeconds: c.cpu, DiskBytes: c.disk, NetBytes: c.net, MemBytes: 1 << 40}
		if got := s.Bottleneck(res); got != c.want {
			t.Fatalf("cpu=%v disk=%d net=%d: bottleneck %v, want %v (memory column must stay silent)",
				c.cpu, c.disk, c.net, got, c.want)
		}
	}
}

// TestAttributeMemorylessCluster: attribution over monotasks that carry
// memory traffic, on a cluster that does not model memory, must keep
// IdealMem at zero while still reporting the traffic split (MemShare is a
// share of recorded bytes, not of bandwidth).
func TestAttributeMemorylessCluster(t *testing.T) {
	a := jobWith("a", mono(task.CPUResource, task.KindCompute, 0, 4, 0))
	a.Stages[0].Tasks[0].MemBytes = 3000
	b := jobWith("b", mono(task.CPUResource, task.KindCompute, 0, 4, 0))
	b.Stages[0].Tasks[0].MemBytes = 1000

	res := Resources{TotalCores: 4, DiskBW: 1e9, NetBW: 1e9} // MemBW unset
	att := Attribute([]*task.JobMetrics{a, b}, 0, 4, res)
	for _, ja := range att {
		if ja.IdealMem != 0 {
			t.Fatalf("job %s: IdealMem %v on a memoryless cluster, want 0", ja.Name, ja.IdealMem)
		}
		if math.IsNaN(ja.MemShare) {
			t.Fatalf("job %s: MemShare is NaN", ja.Name)
		}
	}
	if math.Abs(att[0].MemShare-0.75) > 1e-12 || math.Abs(att[1].MemShare-0.25) > 1e-12 {
		t.Fatalf("memory-traffic shares %v/%v, want 0.75/0.25", att[0].MemShare, att[1].MemShare)
	}
}

// TestAttributionErrorMemoryColumn: a memory column absent from both sides
// contributes nothing; attributing memory traffic the truth never measured
// is phantom usage and must count as full error, same as the other
// resources.
func TestAttributionErrorMemoryColumn(t *testing.T) {
	got := windowUsageOf(t, 2000)
	truth := windowUsageOf(t, 2000)
	if e := AttributionError(got, truth); e != 0 {
		t.Fatalf("identical usage with memory traffic reports error %v, want 0", e)
	}
	if e := AttributionError(windowUsageOf(t, 0), windowUsageOf(t, 0)); e != 0 {
		t.Fatalf("memoryless usage reports error %v, want 0", e)
	}
	if e := AttributionError(windowUsageOf(t, 500), windowUsageOf(t, 0)); e != 1 {
		t.Fatalf("phantom memory attribution reports error %v, want full 1.0", e)
	}
}

// windowUsageOf builds a one-job usage with the given memory traffic via the
// public attribution path, so the test exercises windowUsage rather than
// hand-assembling the struct.
func windowUsageOf(t *testing.T, memBytes int64) metrics.MeasuredUsage {
	t.Helper()
	j := jobWith("u", mono(task.CPUResource, task.KindCompute, 0, 1, 0),
		mono(task.DiskResource, task.KindInputRead, 0, 1, 100))
	j.Stages[0].Tasks[0].MemBytes = memBytes
	return Attribute([]*task.JobMetrics{j}, 0, 1, Resources{})[0].Usage
}
