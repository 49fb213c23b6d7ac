package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/resource"
)

func TestPercentileBasics(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 95); got != 7 {
		t.Errorf("Percentile(single) = %v, want 7", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentile(s, 50)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{0, 10}
	if got := Percentile(s, 50); got != 5 {
		t.Fatalf("Percentile(50) = %v, want 5 (interpolated)", got)
	}
}

func TestBoxOrdering(t *testing.T) {
	s := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
	sort.Float64s(s)
	b := sortedBox(s)
	if !(b.P5 <= b.P25 && b.P25 <= b.P50 && b.P50 <= b.P75 && b.P75 <= b.P95) {
		t.Fatalf("box not monotone: %+v", b)
	}
	if b.P50 != 4.5 {
		t.Fatalf("median = %v, want 4.5", b.P50)
	}
}

// TestPercentileEqualNeighbours pins inputs on which unclamped
// interpolation between two equal samples rounds one ulp past them.
func TestPercentileEqualNeighbours(t *testing.T) {
	for p := 0.0; p <= 100; p += 7 {
		if got := Percentile([]float64{251, 251}, p); got != 251 {
			t.Fatalf("Percentile({251, 251}, %v) = %v, want 251", p, got)
		}
	}
	if got := SortedPercentile([]float64{11, 11}, 21); got != 11 {
		t.Fatalf("SortedPercentile({11, 11}, 21) = %v, want 11", got)
	}
	// Unclamped, 5 samples give 0.8000000000000002 and 8 give
	// 0.7999999999999999.
	for _, n := range []int{5, 8} {
		flat := make([]float64, n)
		for i := range flat {
			flat[i] = 0.8
		}
		if got := Percentile(flat, 5); got != 0.8 {
			t.Fatalf("5th percentile of %d samples of 0.8 = %v, want 0.8", n, got)
		}
	}
}

// Property: percentiles are bounded by min and max and monotone in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]float64, len(raw))
		lo, hi := math.MaxFloat64, -math.MaxFloat64
		for i, r := range raw {
			s[i] = float64(r)
			lo = math.Min(lo, s[i])
			hi = math.Max(hi, s[i])
		}
		prev := lo
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(s, p)
			if v < prev-1e-9 || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	spec := cluster.MachineSpec{
		Cores:    2,
		Disks:    []resource.DiskSpec{{Kind: resource.HDD, SeqBW: 100e6, ContentionAlpha: 0.35}},
		NetBW:    100e6,
		MemBytes: 1 << 30,
	}
	c, err := cluster.New(2, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUtilSamplesCPU(t *testing.T) {
	c := testCluster(t)
	c.Machines[0].CPU.Run(10, func() {}) // 1 of 2 cores busy for 10 s
	c.Engine.Run()
	s := UtilSamples(c, CPU, 0, 10, 5)
	if len(s) != 10 { // 5 per machine × 2 machines
		t.Fatalf("got %d samples, want 10", len(s))
	}
	if got := mean(s); math.Abs(got-0.25) > 1e-9 { // machine0 at 0.5, machine1 idle
		t.Fatalf("mean cpu util = %v, want 0.25", got)
	}
}

func TestUtilSamplesDiskAveragesDrives(t *testing.T) {
	spec := cluster.MachineSpec{
		Cores: 2,
		Disks: []resource.DiskSpec{
			{Kind: resource.HDD, SeqBW: 100e6, ContentionAlpha: 0.35},
			{Kind: resource.HDD, SeqBW: 100e6, ContentionAlpha: 0.35},
		},
		NetBW: 100e6, MemBytes: 1 << 30,
	}
	c, _ := cluster.New(1, spec)
	c.Machines[0].Disks[0].Read(1000e6, func() {}) // busy 10 s; disk 1 idle
	c.Engine.Run()
	s := UtilSamples(c, Disk, 0, 10, 4)
	if got := mean(s); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("mean disk util = %v, want 0.5 (1 of 2 drives busy)", got)
	}
}

func TestUtilSamplesNetworkTakesBusierDirection(t *testing.T) {
	c := testCluster(t)
	c.Fabric.Transfer(0, 1, 1000e6, func() {}) // 10 s at full rate
	c.Engine.Run()
	s := UtilSamples(c, Network, 0, 10, 4)
	// Machine 0 egress = 1, machine 1 ingress = 1: both machines report 1.
	if got := mean(s); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("mean net util = %v, want 1.0", got)
	}
}

func TestUtilSamplesBoundary(t *testing.T) {
	c := testCluster(t)
	c.Machines[0].CPU.Run(10, func() {})
	c.Engine.Run()
	// n ≤ 0 and empty or inverted windows return nil instead of panicking
	// (make([]float64, n) with negative n would otherwise abort the process).
	for _, n := range []int{0, -1, -100} {
		for _, r := range []ResourceName{CPU, Disk, Network} {
			if s := UtilSamples(c, r, 0, 10, n); s != nil {
				t.Fatalf("UtilSamples(%v, n=%d) = %v, want nil", r, n, s)
			}
		}
	}
	if s := UtilSamples(c, CPU, 10, 10, 4); s != nil {
		t.Fatalf("empty window samples = %v, want nil", s)
	}
	if s := UtilSamples(c, CPU, 10, 5, 4); s != nil {
		t.Fatalf("inverted window samples = %v, want nil", s)
	}
	if s := UtilSamples(nil, CPU, 0, 10, 4); s != nil {
		t.Fatalf("nil cluster samples = %v, want nil", s)
	}
}

func TestUtilSamplesDisklessMachine(t *testing.T) {
	// A diskless spec is legal (cluster.Validate only checks disks that
	// exist); its machines contribute no disk samples and must not skew the
	// pooled mean with zeros.
	diskless := cluster.MachineSpec{Cores: 2, NetBW: 100e6, MemBytes: 1 << 30}
	withDisk := cluster.MachineSpec{
		Cores:    2,
		Disks:    []resource.DiskSpec{{Kind: resource.HDD, SeqBW: 100e6, ContentionAlpha: 0.35}},
		NetBW:    100e6,
		MemBytes: 1 << 30,
	}
	c, err := cluster.NewHetero([]cluster.MachineSpec{withDisk, diskless})
	if err != nil {
		t.Fatal(err)
	}
	c.Machines[0].Disks[0].Read(1000e6, func() {}) // busy the full 10 s window
	c.Engine.Run()
	s := UtilSamples(c, Disk, 0, 10, 4)
	if len(s) != 4 {
		t.Fatalf("got %d disk samples, want 4 (diskless machine contributes none)", len(s))
	}
	if got := mean(s); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("mean disk util = %v, want 1.0 — diskless machine diluted the mean", got)
	}
}

func TestMachineUtilSamplesGuards(t *testing.T) {
	// A hand-built machine with no devices (a telemetry caller over a
	// partially constructed spec) yields nil for every resource.
	bare := &cluster.Machine{ID: 0}
	for _, r := range []ResourceName{CPU, Disk, Network} {
		if s := MachineUtilSamples(bare, r, 0, 10, 4); s != nil {
			t.Fatalf("bare machine %v samples = %v, want nil", r, s)
		}
	}
	if s := MachineUtilSamples(nil, CPU, 0, 10, 4); s != nil {
		t.Fatalf("nil machine samples = %v, want nil", s)
	}
	// A real machine returns exactly n per-machine samples.
	c := testCluster(t)
	c.Machines[0].CPU.Run(10, func() {})
	c.Engine.Run()
	s := MachineUtilSamples(c.Machines[0], CPU, 0, 10, 5)
	if len(s) != 5 {
		t.Fatalf("got %d samples, want 5", len(s))
	}
	if got := mean(s); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("machine 0 mean cpu util = %v, want 0.5", got)
	}
	// Unknown resource names yield nil rather than a zero-filled series.
	if s := MachineUtilSamples(c.Machines[0], ResourceName("gpu"), 0, 10, 4); s != nil {
		t.Fatalf("unknown resource samples = %v, want nil", s)
	}
}

func TestStageUtilBoundary(t *testing.T) {
	c := testCluster(t)
	c.Machines[0].CPU.Run(10, func() {})
	c.Engine.Run()
	// n = 0 and empty windows degrade to an all-zero ranking, not a panic.
	for _, su := range []StageUtilization{
		StageUtil(c, 0, 10, 0),
		StageUtil(c, 5, 5, 4),
		StageUtil(c, 9, 3, 4),
	} {
		if su.BottleneckBox.P50 != 0 || su.SecondBox.P95 != 0 {
			t.Fatalf("degenerate StageUtil = %+v, want zero boxes", su)
		}
	}
}

func TestMeasureGuards(t *testing.T) {
	if u := Measure(nil, 0, 10); u != (MeasuredUsage{}) {
		t.Fatalf("Measure(nil) = %+v, want zero", u)
	}
	c := testCluster(t)
	c.Machines[0].CPU.Run(5, func() {})
	c.Engine.Run()
	if u := Measure(c, 10, 10); u != (MeasuredUsage{}) {
		t.Fatalf("empty-window Measure = %+v, want zero", u)
	}
	// A machine with no devices measures as zero instead of panicking.
	c.Machines = append(c.Machines, &cluster.Machine{ID: 2})
	u := Measure(c, 0, 10)
	if math.Abs(u.CPUSeconds-5) > 1e-6 {
		t.Fatalf("CPUSeconds with bare machine = %v, want 5", u.CPUSeconds)
	}
}

func TestStageUtilRanksResources(t *testing.T) {
	c := testCluster(t)
	// CPU fully busy on both machines; disk half busy on one.
	for _, m := range c.Machines {
		m.CPU.Run(20, func() {})
		m.CPU.Run(20, func() {})
	}
	c.Machines[0].Disks[0].Read(500e6, func() {})
	c.Engine.Run()
	su := StageUtil(c, 0, 10, 4)
	if su.Bottleneck != CPU {
		t.Fatalf("bottleneck = %v, want cpu", su.Bottleneck)
	}
	if su.Second != Disk {
		t.Fatalf("second = %v, want disk", su.Second)
	}
	if su.BottleneckBox.P50 < 0.99 {
		t.Fatalf("bottleneck median = %v, want ≈1", su.BottleneckBox.P50)
	}
}

func TestMeasureWindow(t *testing.T) {
	c := testCluster(t)
	c.Machines[0].CPU.Run(5, func() {})
	c.Machines[0].Disks[0].Read(100e6, func() {})
	c.Machines[1].Disks[0].Write(50e6, func() {})
	c.Fabric.Transfer(0, 1, 30e6, func() {})
	c.Engine.Run()
	u := Measure(c, 0, 10)
	if math.Abs(u.CPUSeconds-5) > 1e-6 {
		t.Fatalf("CPUSeconds = %v, want 5", u.CPUSeconds)
	}
	if u.DiskReadBytes != 100e6 || u.DiskWriteBytes != 50e6 {
		t.Fatalf("disk bytes = %d/%d, want 1e8/5e7", u.DiskReadBytes, u.DiskWriteBytes)
	}
	if u.NetBytes != 30e6 {
		t.Fatalf("net bytes = %d, want 3e7", u.NetBytes)
	}
	// A window after everything happened must measure zero.
	u2 := Measure(c, 100, 110)
	if u2.CPUSeconds != 0 || u2.DiskReadBytes != 0 || u2.NetBytes != 0 {
		t.Fatalf("late window measured %+v, want zeros", u2)
	}
}

func TestMeasuredUsageAdd(t *testing.T) {
	a := MeasuredUsage{CPUSeconds: 1, DiskReadBytes: 2, DiskWriteBytes: 3, NetBytes: 4}
	b := MeasuredUsage{CPUSeconds: 10, DiskReadBytes: 20, DiskWriteBytes: 30, NetBytes: 40}
	got := a.Add(b)
	want := MeasuredUsage{CPUSeconds: 11, DiskReadBytes: 22, DiskWriteBytes: 33, NetBytes: 44}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}
