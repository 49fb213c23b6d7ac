package model

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
)

func mono(r task.Resource, k task.Kind, start, end sim.Time, bytes int64) task.MonotaskMetric {
	return task.MonotaskMetric{Resource: r, Kind: k, Start: start, End: end, Bytes: bytes}
}

func jobWith(name string, ms ...task.MonotaskMetric) *task.JobMetrics {
	return &task.JobMetrics{Name: name, Stages: []*task.StageMetrics{{
		Tasks: []*task.TaskMetrics{{Monotasks: ms}},
	}}}
}

func TestAttributeExactPerJob(t *testing.T) {
	res := Resources{TotalCores: 4, DiskBW: 100, NetBW: 50}
	a := jobWith("cpu-heavy",
		mono(task.CPUResource, task.KindCompute, 0, 8, 0),
		mono(task.DiskResource, task.KindInputRead, 0, 1, 100),
	)
	b := jobWith("disk-heavy",
		mono(task.CPUResource, task.KindCompute, 0, 2, 0),
		mono(task.DiskResource, task.KindInputRead, 0, 4, 500),
		mono(task.DiskResource, task.KindOutputWrite, 4, 8, 300),
		mono(task.NetworkResource, task.KindNetFetch, 0, 2, 200),
	)
	atts := Attribute([]*task.JobMetrics{a, b}, 0, 10, res)
	if atts[0].Usage.CPUSeconds != 8 || atts[1].Usage.CPUSeconds != 2 {
		t.Fatalf("cpu seconds %v / %v, want 8 / 2", atts[0].Usage.CPUSeconds, atts[1].Usage.CPUSeconds)
	}
	if atts[0].Usage.DiskReadBytes != 100 || atts[1].Usage.DiskReadBytes != 500 || atts[1].Usage.DiskWriteBytes != 300 {
		t.Fatalf("disk bytes wrong: %+v / %+v", atts[0].Usage, atts[1].Usage)
	}
	if atts[1].Usage.NetBytes != 200 || atts[0].Usage.NetBytes != 0 {
		t.Fatalf("net bytes wrong: %+v / %+v", atts[0].Usage, atts[1].Usage)
	}
	// Shares: cpu 8/10 vs 2/10; disk 100/900 vs 800/900; net 0 vs 1.
	if math.Abs(atts[0].CPUShare-0.8) > 1e-12 || math.Abs(atts[1].DiskShare-800.0/900) > 1e-12 || atts[1].NetShare != 1 {
		t.Fatalf("shares wrong: %+v / %+v", atts[0], atts[1])
	}
	// Ideal times divide by the aggregate capacity.
	if math.Abs(atts[0].IdealCPU-2) > 1e-12 { // 8 core-s / 4 cores
		t.Fatalf("ideal cpu %v, want 2", atts[0].IdealCPU)
	}
	if math.Abs(atts[1].IdealDisk-8) > 1e-12 { // 800 B / 100 B/s
		t.Fatalf("ideal disk %v, want 8", atts[1].IdealDisk)
	}
	if math.Abs(atts[1].IdealNet-4) > 1e-12 { // 200 B / 50 B/s
		t.Fatalf("ideal net %v, want 4", atts[1].IdealNet)
	}
}

func TestAttributeWindowClipping(t *testing.T) {
	j := jobWith("j",
		mono(task.DiskResource, task.KindInputRead, 0, 10, 1000),
		mono(task.CPUResource, task.KindCompute, 0, 10, 0),
	)
	atts := Attribute([]*task.JobMetrics{j}, 2, 7, Resources{})
	// Half-open window [2,7) covers 5 of the 10 seconds: half the bytes and
	// half the CPU time attribute to it.
	if atts[0].Usage.DiskReadBytes != 500 {
		t.Fatalf("clipped read bytes %d, want 500", atts[0].Usage.DiskReadBytes)
	}
	if atts[0].Usage.CPUSeconds != 5 {
		t.Fatalf("clipped cpu seconds %v, want 5", atts[0].Usage.CPUSeconds)
	}
	// A window that misses the monotask attributes nothing.
	if got := Attribute([]*task.JobMetrics{j}, 10, 20, Resources{}); got[0].Usage.DiskReadBytes != 0 {
		t.Fatalf("out-of-window attribution %+v, want zero", got[0].Usage)
	}
}

func TestAttributeLiveSkipsInFlightTasks(t *testing.T) {
	// Mid-run, unfinished task slots hold nil metrics; Attribute must not
	// panic and must use only completed attempts.
	j := &task.JobMetrics{Name: "live", Stages: []*task.StageMetrics{{
		Tasks: []*task.TaskMetrics{
			{Monotasks: []task.MonotaskMetric{mono(task.DiskResource, task.KindInputRead, 0, 1, 42)}},
			nil,
			nil,
		},
	}}}
	atts := Attribute([]*task.JobMetrics{j}, 0, 100, Resources{})
	if atts[0].Usage.DiskReadBytes != 42 {
		t.Fatalf("live attribution %+v, want 42 read bytes", atts[0].Usage)
	}
}

func TestAttributeInstantaneousMonotask(t *testing.T) {
	j := jobWith("z", mono(task.NetworkResource, task.KindNetFetch, 5, 5, 77))
	if got := Attribute([]*task.JobMetrics{j}, 0, 10, Resources{}); got[0].Usage.NetBytes != 77 {
		t.Fatalf("instant monotask in window attributed %d bytes, want 77", got[0].Usage.NetBytes)
	}
	if got := Attribute([]*task.JobMetrics{j}, 6, 10, Resources{}); got[0].Usage.NetBytes != 0 {
		t.Fatalf("instant monotask outside window attributed %d bytes, want 0", got[0].Usage.NetBytes)
	}
}

func TestAttributionError(t *testing.T) {
	truth := metrics.MeasuredUsage{CPUSeconds: 10, DiskReadBytes: 1000, NetBytes: 100}
	if e := AttributionError(truth, truth); e != 0 {
		t.Fatalf("self error %v, want 0", e)
	}
	got := metrics.MeasuredUsage{CPUSeconds: 10, DiskReadBytes: 500, NetBytes: 100}
	if e := AttributionError(got, truth); math.Abs(e-0.5) > 1e-12 {
		t.Fatalf("error %v, want 0.5 (disk halved)", e)
	}
	// A resource unused in both got and truth contributes nothing.
	if e := AttributionError(metrics.MeasuredUsage{}, metrics.MeasuredUsage{}); e != 0 {
		t.Fatalf("error of all-zero usage %v, want 0", e)
	}
}

func TestAttributionErrorPhantomUsage(t *testing.T) {
	// Attributing usage to a resource the truth never touched is phantom
	// attribution: it must register as full (1.0) relative error, not vanish
	// because the denominator is zero.
	cases := []struct {
		name string
		got  metrics.MeasuredUsage
	}{
		{"net", metrics.MeasuredUsage{NetBytes: 5}},
		{"cpu", metrics.MeasuredUsage{CPUSeconds: 0.25}},
		{"disk-read", metrics.MeasuredUsage{DiskReadBytes: 9}},
		{"disk-write", metrics.MeasuredUsage{DiskWriteBytes: 9}},
	}
	for _, c := range cases {
		if e := AttributionError(c.got, metrics.MeasuredUsage{}); e != 1 {
			t.Fatalf("%s: phantom attribution error %v, want 1", c.name, e)
		}
	}
	// Phantom error on one resource does not mask a larger real error on
	// another.
	got := metrics.MeasuredUsage{NetBytes: 5, CPUSeconds: 30}
	truth := metrics.MeasuredUsage{CPUSeconds: 10}
	if e := AttributionError(got, truth); math.Abs(e-2) > 1e-12 {
		t.Fatalf("mixed phantom+real error %v, want 2 (cpu tripled)", e)
	}
}

// TestAttributeWindowTiling is the tiling property the telemetry sampler
// depends on: attributing a run as a sequence of adjacent windows must sum to
// the whole-run attribution within rounding (half a byte per window). The
// old per-monotask truncation undercounted by up to a byte per monotask per
// window, which compounds across tiles.
func TestAttributeWindowTiling(t *testing.T) {
	// Byte volumes chosen so every window boundary splits monotasks at
	// non-integer byte fractions (the truncation-sensitive case).
	j := jobWith("tile",
		mono(task.DiskResource, task.KindInputRead, 0, 7, 1003),
		mono(task.DiskResource, task.KindShuffleWrite, 1, 8, 977),
		mono(task.DiskResource, task.KindInputRead, 2.5, 9.5, 331),
		mono(task.NetworkResource, task.KindNetFetch, 0.5, 9, 1999),
		mono(task.CPUResource, task.KindCompute, 0, 10, 0),
	)
	// A task's memory traffic pro-rates over its one compute monotask's
	// span, so the memory-moving compute runs in a task of its own.
	j.Stages[0].Tasks = append(j.Stages[0].Tasks, &task.TaskMetrics{
		Monotasks: []task.MonotaskMetric{mono(task.CPUResource, task.KindCompute, 0.25, 9.75, 0)},
		MemBytes:  1511,
	})
	jobs := []*task.JobMetrics{j}
	whole := Attribute(jobs, 0, 10, Resources{})[0].Usage
	if whole.MemBytes == 0 {
		t.Fatal("whole-run attribution dropped the compute monotask's memory traffic")
	}

	for _, nWindows := range []int{2, 3, 7, 16, 50} {
		var sum metrics.MeasuredUsage
		step := sim.Time(10) / sim.Time(nWindows)
		for w := 0; w < nWindows; w++ {
			t0, t1 := sim.Time(w)*step, sim.Time(w+1)*step
			sum = sum.Add(Attribute(jobs, t0, t1, Resources{})[0].Usage)
		}
		// Each window rounds once, so the tiled sum may drift from the whole
		// by at most half a byte per window (plus the whole's own rounding).
		tol := int64(nWindows/2 + 1)
		within := func(a, b int64) bool {
			d := a - b
			if d < 0 {
				d = -d
			}
			return d <= tol
		}
		if !within(sum.DiskReadBytes, whole.DiskReadBytes) ||
			!within(sum.DiskWriteBytes, whole.DiskWriteBytes) ||
			!within(sum.NetBytes, whole.NetBytes) ||
			!within(sum.MemBytes, whole.MemBytes) {
			t.Fatalf("%d windows: tiled sum %+v drifts beyond ±%d bytes from whole %+v",
				nWindows, sum, tol, whole)
		}
		if math.Abs(sum.CPUSeconds-whole.CPUSeconds) > 1e-9 {
			t.Fatalf("%d windows: tiled CPU %v vs whole %v", nWindows, sum.CPUSeconds, whole.CPUSeconds)
		}
	}

	// The two-window split the telemetry sampler produces must be exact to
	// the rounding bound for every boundary position, including boundaries
	// inside every monotask.
	for tm := sim.Time(0.5); tm < 10; tm += 0.5 {
		a := Attribute(jobs, 0, tm, Resources{})[0].Usage
		b := Attribute(jobs, tm, 10, Resources{})[0].Usage
		sum := a.Add(b)
		for _, d := range []int64{
			sum.DiskReadBytes - whole.DiskReadBytes,
			sum.DiskWriteBytes - whole.DiskWriteBytes,
			sum.NetBytes - whole.NetBytes,
			sum.MemBytes - whole.MemBytes,
		} {
			if d < -2 || d > 2 {
				t.Fatalf("split at %v: tiled %+v vs whole %+v", tm, sum, whole)
			}
		}
	}
}
