package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
)

// referenceCapture is a snapshot's Machines and Stage as the sampler built
// them before it read each timeline once per tick: MachineUtilSamples for
// every machine and resource, then metrics.StageUtil, each sampling the
// timelines afresh.
func referenceCapture(c *cluster.Cluster, t0, t1 sim.Time, n int) ([]telemetry.MachineUtil, metrics.StageUtilization) {
	meanOrAbsent := func(s []float64) float64 {
		if s == nil {
			return -1
		}
		var sum float64
		for _, v := range s {
			sum += v
		}
		return sum / float64(len(s))
	}
	var machines []telemetry.MachineUtil
	for _, m := range c.Machines {
		mu := telemetry.MachineUtil{
			Machine: m.ID,
			CPU:     meanOrAbsent(metrics.MachineUtilSamples(m, metrics.CPU, t0, t1, n)),
			Disk:    meanOrAbsent(metrics.MachineUtilSamples(m, metrics.Disk, t0, t1, n)),
			Net:     meanOrAbsent(metrics.MachineUtilSamples(m, metrics.Network, t0, t1, n)),
		}
		if s := metrics.MachineUtilSamples(m, metrics.Memory, t0, t1, n); s != nil {
			v := meanOrAbsent(s)
			mu.Mem = &v
		}
		machines = append(machines, mu)
	}
	return machines, metrics.StageUtil(c, t0, t1, n)
}

// captureCheck compares every snapshot, as it is captured, with
// referenceCapture over the same window: both must marshal to the same
// JSON bytes.
type captureCheck struct {
	t *testing.T
	c *cluster.Cluster
	n int

	snaps     int
	failed    bool
	memRanked int // snapshots whose top two resources include memory
}

func (cc *captureCheck) config(interval sim.Duration) telemetry.Config {
	return telemetry.Config{Interval: interval, SamplesPerMachine: cc.n, OnSnapshot: cc.observe}
}

func (cc *captureCheck) observe(s *telemetry.Snapshot) {
	cc.snaps++
	if s.Stage.Bottleneck == metrics.Memory || s.Stage.Second == metrics.Memory {
		cc.memRanked++
	}
	if cc.failed {
		return
	}
	machines, stage := referenceCapture(cc.c, s.T0, s.T1, cc.n)
	for _, p := range []struct {
		name      string
		got, want any
	}{
		{"machines", s.Machines, machines},
		{"stage", s.Stage, stage},
	} {
		got, err := json.Marshal(p.got)
		if err != nil {
			cc.t.Fatal(err)
		}
		want, err := json.Marshal(p.want)
		if err != nil {
			cc.t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			cc.failed = true
			cc.t.Errorf("snapshot %d [%v, %v) %s:\ngot  %s\nwant %s", s.Seq, s.T0, s.T1, p.name, got, want)
		}
	}
}

// runChecked runs job on c under monotasks with a captureCheck attached.
func runChecked(t *testing.T, c *cluster.Cluster, env *workloads.Env, job *task.JobSpec, interval sim.Duration, n int) *captureCheck {
	t.Helper()
	cc := &captureCheck{t: t, c: c, n: n}
	cfg := cc.config(interval)
	if _, err := run.JobsContext(context.Background(), c, env.FS, run.Options{Mode: run.Monotasks, Telemetry: &cfg}, job); err != nil {
		t.Fatal(err)
	}
	return cc
}

// TestCaptureMatchesReferenceSort: a sort on machines with two drives each,
// so every disk sample averages two timelines, at two sampling densities.
func TestCaptureMatchesReferenceSort(t *testing.T) {
	for _, n := range []int{8, 5} {
		c := cluster.MustNew(4, cluster.M2_4XLarge())
		env := workloads.MustEnv(c)
		job, err := workloads.Sort{TotalBytes: 4 * units.GB, ValuesPerKey: 10}.Build(env)
		if err != nil {
			t.Fatal(err)
		}
		if cc := runChecked(t, c, env, job, 0.7, n); cc.snaps < 10 {
			t.Fatalf("n=%d: only %d snapshots checked", n, cc.snaps)
		}
	}
}

// TestCaptureMatchesReferenceMemory: a scale-up scan on a memory-model
// machine next to one without the model, so the Mem column is present on
// one machine and absent on the other, and memory enters the stage ranking.
// The fat machines carry four SSDs each.
func TestCaptureMatchesReferenceMemory(t *testing.T) {
	plain := cluster.FatNode()
	plain.Mem = resource.MemorySpec{}
	c, err := cluster.NewHetero([]cluster.MachineSpec{cluster.FatNode(), plain})
	if err != nil {
		t.Fatal(err)
	}
	env := workloads.MustEnv(c)
	job, err := workloads.ScaleUp{TotalBytes: 64 * units.GB}.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	cc := runChecked(t, c, env, job, 0.5, 8)
	if cc.snaps < 10 {
		t.Fatalf("only %d snapshots checked", cc.snaps)
	}
	if cc.memRanked == 0 {
		t.Fatal("memory never ranked among the top two resources: the comparison does not cover its series")
	}
}

// TestCaptureMatchesReferenceDiskless drives the devices of a cluster with
// one diskless machine directly, with no driver bound: the diskless
// machine's disk column is absent, and its missing samples must not shift
// the pooled disk series.
func TestCaptureMatchesReferenceDiskless(t *testing.T) {
	withDisk := cluster.MachineSpec{
		Cores:    2,
		Disks:    []resource.DiskSpec{resource.DefaultHDD()},
		NetBW:    100e6,
		MemBytes: 1 << 30,
	}
	diskless := cluster.MachineSpec{Cores: 4, NetBW: 100e6, MemBytes: 1 << 30}
	c, err := cluster.NewHetero([]cluster.MachineSpec{withDisk, diskless, withDisk})
	if err != nil {
		t.Fatal(err)
	}
	cc := &captureCheck{t: t, c: c, n: 8}
	telemetry.Start(c, nil, cc.config(1))
	m := c.Machines
	m[0].CPU.Run(6, func() {})
	m[1].CPU.Run(3, func() {})
	m[1].CPU.Run(9, func() {})
	m[0].Disks[0].Read(500e6, func() {})
	m[2].Disks[0].Write(200e6, func() {})
	c.Fabric.Transfer(0, 1, 400e6, func() {})
	c.Fabric.Transfer(1, 2, 150e6, func() {})
	c.Engine.Run()
	if cc.snaps < 5 {
		t.Fatalf("only %d snapshots checked", cc.snaps)
	}
}

// TestCaptureMatchesReferenceEmptyWindow: a tick whose window is empty
// (T1 == T0) reports every resource absent and a zero ranking, as
// MachineUtilSamples and StageUtil do. At 1e17 virtual seconds one second
// is below half an ulp, so the first tick lands on the window's start.
func TestCaptureMatchesReferenceEmptyWindow(t *testing.T) {
	c := cluster.MustNew(2, cluster.FatNode())
	c.Machines[0].CPU.Run(2, func() {})
	c.Engine.At(1e17, func() {})
	c.Engine.Run()
	cc := &captureCheck{t: t, c: c, n: 8}
	s := telemetry.Start(c, nil, cc.config(1))
	c.Engine.Run()
	snaps := s.Snapshots()
	if len(snaps) != 1 || snaps[0].T0 != snaps[0].T1 {
		t.Fatalf("want one empty-window snapshot, got %+v", snaps)
	}
	for _, mu := range snaps[0].Machines {
		if mu.CPU != -1 || mu.Disk != -1 || mu.Net != -1 || mu.Mem != nil {
			t.Fatalf("empty window reports %+v, want every resource absent", mu)
		}
	}
}
