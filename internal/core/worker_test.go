package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// testSpec builds a machine with clean arithmetic: no seek, no contention
// penalty, 100 MB/s disks, 100 MB/s network.
func testSpec(cores, disks int) cluster.MachineSpec {
	ds := make([]resource.DiskSpec, disks)
	for i := range ds {
		ds[i] = resource.DiskSpec{Kind: resource.HDD, SeqBW: 100e6, SeekTime: 0, ContentionAlpha: 0.35}
	}
	return cluster.MachineSpec{Cores: cores, Disks: ds, NetBW: 100e6, MemBytes: 1 << 30}
}

func newTestGroup(t *testing.T, machines, cores, disks int) (*cluster.Cluster, *Group) {
	t.Helper()
	c, err := cluster.New(machines, testSpec(cores, disks))
	if err != nil {
		t.Fatal(err)
	}
	return c, NewGroup(c, Options{})
}

func approx(a, b sim.Time) bool { return math.Abs(float64(a-b)) < 1e-6 }

// run launches tasks and returns their metrics after the engine drains.
func run(c *cluster.Cluster, g *Group, tasks []*task.Task) []*task.TaskMetrics {
	out := make([]*task.TaskMetrics, len(tasks))
	for i, tk := range tasks {
		i := i
		g.Workers[tk.Machine].Launch(tk, func(m *task.TaskMetrics) { out[i] = m })
	}
	c.Engine.Run()
	return out
}

func TestMapTaskSerializesResources(t *testing.T) {
	c, g := newTestGroup(t, 1, 1, 1)
	stage := &task.StageSpec{ID: 0, Name: "map", NumTasks: 1, OpCPU: 2, ShuffleOutBytes: 50e6}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0, DiskReadBytes: 100e6, DiskReadDisk: 0}
	m := run(c, g, []*task.Task{tk})[0]
	// 1 s read + 2 s compute + 0.5 s shuffle write, strictly serialized.
	if !approx(m.End, 3.5) {
		t.Fatalf("map multitask finished at %v, want 3.5 (serialized monotasks)", m.End)
	}
	if len(m.Monotasks) != 3 {
		t.Fatalf("got %d monotasks, want 3 (read, compute, write)", len(m.Monotasks))
	}
	kinds := map[task.Kind]task.MonotaskMetric{}
	for _, mm := range m.Monotasks {
		kinds[mm.Kind] = mm
	}
	rd, cp, wr := kinds[task.KindInputRead], kinds[task.KindCompute], kinds[task.KindShuffleWrite]
	if !approx(rd.End, 1) || !approx(cp.Start, 1) || !approx(cp.End, 3) || !approx(wr.Start, 3) {
		t.Fatalf("monotask spans wrong: read %v-%v compute %v-%v write %v-%v",
			rd.Start, rd.End, cp.Start, cp.End, wr.Start, wr.End)
	}
	if rd.Bytes != 100e6 || wr.Bytes != 50e6 {
		t.Fatalf("bytes: read %d write %d", rd.Bytes, wr.Bytes)
	}
}

func TestComputeSchedulerOneMonotaskPerCore(t *testing.T) {
	c, g := newTestGroup(t, 1, 2, 1)
	stage := &task.StageSpec{ID: 0, Name: "cpu", NumTasks: 4, OpCPU: 1}
	var tasks []*task.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &task.Task{Stage: stage, Index: i, Machine: 0})
	}
	ms := run(c, g, tasks)
	// 4 × 1 s jobs on 2 cores, admitted two at a time: finish at 1,1,2,2.
	// With processor sharing (no admission control) all four would finish
	// at 2 — this test is what distinguishes the monotasks CPU scheduler.
	ends := []sim.Time{ms[0].End, ms[1].End, ms[2].End, ms[3].End}
	if !approx(ends[0], 1) || !approx(ends[1], 1) || !approx(ends[2], 2) || !approx(ends[3], 2) {
		t.Fatalf("ends = %v, want [1 1 2 2]", ends)
	}
}

func TestDiskSchedulerOneMonotaskPerHDD(t *testing.T) {
	c, g := newTestGroup(t, 1, 4, 1)
	stage := &task.StageSpec{ID: 0, Name: "read", NumTasks: 2}
	tasks := []*task.Task{
		{Stage: stage, Index: 0, Machine: 0, DiskReadBytes: 100e6},
		{Stage: stage, Index: 1, Machine: 0, DiskReadBytes: 100e6},
	}
	ms := run(c, g, tasks)
	// Serialized: 1 s then 2 s. Under contention both would finish at
	// ~2.7 s (α=0.35), so this checks the scheduler queues the second read.
	if !approx(ms[0].End, 1) || !approx(ms[1].End, 2) {
		t.Fatalf("ends = %v, %v; want 1, 2 (one monotask per disk)", ms[0].End, ms[1].End)
	}
}

func TestDiskWritesRoundRobinAcrossDisks(t *testing.T) {
	c, g := newTestGroup(t, 1, 4, 2)
	stage := &task.StageSpec{ID: 0, Name: "write", NumTasks: 2, OutputBytes: 100e6}
	tasks := []*task.Task{
		{Stage: stage, Index: 0, Machine: 0},
		{Stage: stage, Index: 1, Machine: 0},
	}
	ms := run(c, g, tasks)
	// Two writes spread over two disks proceed in parallel.
	if !approx(ms[0].End, 1) || !approx(ms[1].End, 1) {
		t.Fatalf("ends = %v, %v; want both 1 (round-robin disk choice)", ms[0].End, ms[1].End)
	}
}

func TestSSDSchedulerConcurrency(t *testing.T) {
	spec := cluster.MachineSpec{
		Cores:    4,
		Disks:    []resource.DiskSpec{resource.DefaultSSD()},
		NetBW:    100e6,
		MemBytes: 1 << 30,
	}
	c, _ := cluster.New(1, spec)
	g := NewGroup(c, Options{})
	stage := &task.StageSpec{ID: 0, Name: "read", NumTasks: 4}
	var tasks []*task.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &task.Task{Stage: stage, Index: i, Machine: 0, DiskReadBytes: 100e6})
	}
	ms := run(c, g, tasks)
	// Four concurrent reads saturate the SSD at 400 MB/s aggregate:
	// 400 MB / 400 MB/s = 1 s, all finishing together.
	for i, m := range ms {
		if !approx(m.End, 1) {
			t.Fatalf("task %d finished at %v, want 1 (SSD concurrency 4)", i, m.End)
		}
	}
}

func TestShuffleFetchRemote(t *testing.T) {
	c, g := newTestGroup(t, 2, 1, 1)
	stage := &task.StageSpec{ID: 1, Name: "reduce", NumTasks: 1, ParentIDs: []int{0}, OpCPU: 1}
	tk := &task.Task{
		Stage: stage, Index: 0, Machine: 0,
		Fetches: []task.Fetch{{From: 1, Bytes: 100e6}},
	}
	m := run(c, g, []*task.Task{tk})[0]
	// Remote disk read 1 s + network transfer 1 s + compute 1 s = 3 s.
	if !approx(m.End, 3) {
		t.Fatalf("reduce finished at %v, want 3 (serve read + transfer + compute)", m.End)
	}
	var kinds []task.Kind
	for _, mm := range m.Monotasks {
		kinds = append(kinds, mm.Kind)
	}
	var haveServe, haveNet bool
	for _, mm := range m.Monotasks {
		switch mm.Kind {
		case task.KindShuffleServeRead:
			haveServe = true
			if mm.Machine != 1 {
				t.Fatalf("serve read attributed to machine %d, want 1", mm.Machine)
			}
		case task.KindNetFetch:
			haveNet = true
			if mm.Machine != 0 {
				t.Fatalf("net fetch attributed to machine %d, want 0 (receiver)", mm.Machine)
			}
		}
	}
	if !haveServe || !haveNet {
		t.Fatalf("missing serve/net monotasks, got kinds %v", kinds)
	}
}

func TestShuffleFetchLocalIsDiskRead(t *testing.T) {
	c, g := newTestGroup(t, 1, 1, 1)
	stage := &task.StageSpec{ID: 1, Name: "reduce", NumTasks: 1, ParentIDs: []int{0}, OpCPU: 1}
	tk := &task.Task{
		Stage: stage, Index: 0, Machine: 0,
		Fetches: []task.Fetch{{From: 0, Bytes: 100e6}},
	}
	m := run(c, g, []*task.Task{tk})[0]
	if !approx(m.End, 2) {
		t.Fatalf("local-fetch reduce finished at %v, want 2 (disk read + compute, no network)", m.End)
	}
	for _, mm := range m.Monotasks {
		if mm.Resource == task.NetworkResource {
			t.Fatal("local shuffle fetch created a network monotask")
		}
	}
}

func TestShuffleFetchFromMemory(t *testing.T) {
	c, g := newTestGroup(t, 2, 1, 1)
	stage := &task.StageSpec{ID: 1, Name: "reduce", NumTasks: 1, ParentIDs: []int{0}, OpCPU: 1}
	tk := &task.Task{
		Stage: stage, Index: 0, Machine: 0,
		Fetches: []task.Fetch{
			{From: 0, Bytes: 100e6, FromMem: true}, // local memory: free
			{From: 1, Bytes: 100e6, FromMem: true}, // remote memory: network only
		},
	}
	m := run(c, g, []*task.Task{tk})[0]
	// Remote mem fetch: 1 s transfer (no serve read) + 1 s compute.
	if !approx(m.End, 2) {
		t.Fatalf("in-memory shuffle reduce finished at %v, want 2", m.End)
	}
	for _, mm := range m.Monotasks {
		if mm.Resource == task.DiskResource {
			t.Fatal("in-memory shuffle created a disk monotask")
		}
	}
}

func TestRemoteInputBlockRead(t *testing.T) {
	c, g := newTestGroup(t, 2, 1, 2)
	stage := &task.StageSpec{ID: 0, Name: "map", NumTasks: 1, OpCPU: 1}
	tk := &task.Task{
		Stage: stage, Index: 0, Machine: 0,
		RemoteRead: &task.Fetch{From: 1, Bytes: 100e6, FromDisk: 1},
	}
	m := run(c, g, []*task.Task{tk})[0]
	if !approx(m.End, 3) {
		t.Fatalf("remote-input map finished at %v, want 3", m.End)
	}
	found := false
	for _, mm := range m.Monotasks {
		if mm.Kind == task.KindInputRead {
			found = true
			if mm.Machine != 1 {
				t.Fatalf("remote input read on machine %d, want 1", mm.Machine)
			}
		}
	}
	if !found {
		t.Fatal("remote block read did not record an input-read monotask")
	}
}

func TestNetworkSchedulerLimitsActiveMultitasks(t *testing.T) {
	// 6 reduce multitasks each fetch 100 MB from machine 1. The network
	// scheduler admits 4 at a time; with the serve disk serializing reads,
	// data arrives one multitask at a time regardless, but admission order
	// should be preserved and the 5th/6th must wait for slots.
	c, g := newTestGroup(t, 2, 8, 1)
	stage := &task.StageSpec{ID: 1, Name: "reduce", NumTasks: 6, ParentIDs: []int{0}}
	var tasks []*task.Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, &task.Task{
			Stage: stage, Index: i, Machine: 0,
			Fetches: []task.Fetch{{From: 1, Bytes: 100e6}},
		})
	}
	ms := run(c, g, tasks)
	for i := 1; i < 6; i++ {
		if ms[i].End < ms[i-1].End {
			t.Fatalf("multitask %d finished before %d: admission order violated", i, i-1)
		}
	}
	// Serve disk serializes the 6 reads at 1 s each (ends 1..6); each read's
	// transfer pipelines with the next read, so the last arrival is 7 s.
	if !approx(ms[5].End, 7) {
		t.Fatalf("last reduce finished at %v, want 7", ms[5].End)
	}
}

func TestNetworkLimitVisibleInQueue(t *testing.T) {
	c, g := newTestGroup(t, 2, 8, 1)
	stage := &task.StageSpec{ID: 1, Name: "reduce", NumTasks: 6, ParentIDs: []int{0}}
	for i := 0; i < 6; i++ {
		tk := &task.Task{
			Stage: stage, Index: i, Machine: 0,
			Fetches: []task.Fetch{{From: 1, Bytes: 100e6, FromMem: true}},
		}
		g.Workers[0].Launch(tk, func(*task.TaskMetrics) {})
	}
	// Before any progress: 4 multitasks admitted, 2 queued — contention is
	// visible as queue length (§3.1).
	if q := g.Workers[0].QueueLengths()["network"]; q != 2 {
		t.Fatalf("network queue = %d, want 2", q)
	}
	c.Engine.Run()
	if q := g.Workers[0].QueueLengths()["network"]; q != 0 {
		t.Fatalf("network queue after drain = %d, want 0", q)
	}
}

// TestComputeSplitRecorded: a compute monotask's record keeps no split of
// its own; readers take it from the stage spec, so the run's compute record
// must read back as the stage's split through trace.Records.
func TestComputeSplitRecorded(t *testing.T) {
	c, g := newTestGroup(t, 1, 1, 1)
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 1, DeserCPU: 0.5, OpCPU: 2, SerCPU: 0.25}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0}
	m := run(c, g, []*task.Task{tk})[0]
	jm := &task.JobMetrics{Stages: []*task.StageMetrics{{Spec: stage, Tasks: []*task.TaskMetrics{m}}}}
	cm := trace.Records(jm)[0]
	if cm.Kind != "compute" || cm.DeserS != 0.5 || cm.OpS != 2 || cm.SerS != 0.25 {
		t.Fatalf("%s split %v/%v/%v, want compute 0.5/2/0.25", cm.Kind, cm.DeserS, cm.OpS, cm.SerS)
	}
	if !approx(m.End, 2.75) {
		t.Fatalf("end %v, want 2.75", m.End)
	}
}

func TestMaxConcurrentTasks(t *testing.T) {
	// 8 cores + 2 HDD×1 + 4 network + 1 spare = 15 (§3.4's worked example
	// with 4 cores and 1 disk gives 10).
	c, g := newTestGroup(t, 1, 8, 2)
	_ = c
	if got := g.Workers[0].MaxConcurrentTasks(); got != 15 {
		t.Fatalf("MaxConcurrentTasks = %d, want 15", got)
	}
	spec4 := testSpec(4, 1)
	c2, _ := cluster.New(1, spec4)
	w := NewWorker(c2.Machines[0], c2.Fabric, c2.Engine, Options{})
	if got := w.MaxConcurrentTasks(); got != 10 {
		t.Fatalf("paper example: MaxConcurrentTasks = %d, want 10", got)
	}
}

func TestQueuePhaseRoundRobinKeepsCPUFed(t *testing.T) {
	// The §3.3 scenario: a backlog of disk writes must not starve the disk
	// reads that feed the CPU. Launch tasks whose writes pile up, then new
	// tasks that need reads; reads should interleave with writes.
	c, g := newTestGroup(t, 1, 1, 1)
	writeStage := &task.StageSpec{ID: 0, Name: "w", NumTasks: 4, OutputBytes: 100e6}
	readStage := &task.StageSpec{ID: 1, Name: "r", NumTasks: 1, OpCPU: 0.1}
	var tasks []*task.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &task.Task{Stage: writeStage, Index: i, Machine: 0})
	}
	tasks = append(tasks, &task.Task{Stage: readStage, Index: 0, Machine: 0, DiskReadBytes: 100e6})
	ms := run(c, g, tasks)
	readEnd := ms[4].End
	// Round robin: first write (1 s), then the read (2 s), not after all
	// four writes (which would be 5 s).
	if readEnd > 2.2 {
		t.Fatalf("read-dependent task finished at %v; reads starved behind writes", readEnd)
	}
}

func TestDoneCalledExactlyOnce(t *testing.T) {
	c, g := newTestGroup(t, 1, 1, 1)
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 1, OpCPU: 1}
	calls := 0
	g.Workers[0].Launch(&task.Task{Stage: stage, Index: 0, Machine: 0}, func(*task.TaskMetrics) { calls++ })
	c.Engine.Run()
	if calls != 1 {
		t.Fatalf("done called %d times, want 1", calls)
	}
}

func TestLaunchOnWrongMachinePanics(t *testing.T) {
	_, g := newTestGroup(t, 2, 1, 1)
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 1, OpCPU: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("launching machine-1 task on worker 0 did not panic")
		}
	}()
	g.Workers[0].Launch(&task.Task{Stage: stage, Index: 0, Machine: 1}, func(*task.TaskMetrics) {})
}

func TestMultitaskTimestampsOrdered(t *testing.T) {
	c, g := newTestGroup(t, 2, 2, 2)
	stage := &task.StageSpec{ID: 1, Name: "r", NumTasks: 3, ParentIDs: []int{0}, OpCPU: 0.5, OutputBytes: 10e6}
	var tasks []*task.Task
	for i := 0; i < 3; i++ {
		tasks = append(tasks, &task.Task{
			Stage: stage, Index: i, Machine: i % 2,
			Fetches: []task.Fetch{{From: (i + 1) % 2, Bytes: 20e6}},
		})
	}
	for _, m := range run(c, g, tasks) {
		if m == nil {
			t.Fatal("task never completed")
		}
		if m.End <= m.Start {
			t.Fatalf("task span [%v, %v] not positive", m.Start, m.End)
		}
		for _, mm := range m.Monotasks {
			if mm.Start < mm.Queued || mm.End < mm.Start {
				t.Fatalf("monotask timestamps out of order: queued %v start %v end %v",
					mm.Queued, mm.Start, mm.End)
			}
			if mm.Start < m.Start || mm.End > m.End {
				t.Fatalf("monotask [%v,%v] outside task span [%v,%v]",
					mm.Start, mm.End, m.Start, m.End)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []sim.Time {
		c, g := newTestGroup(t, 4, 2, 2)
		stage := &task.StageSpec{ID: 1, Name: "r", NumTasks: 16, ParentIDs: []int{0}, OpCPU: 0.3, ShuffleOutBytes: 5e6}
		var tasks []*task.Task
		for i := 0; i < 16; i++ {
			var fetches []task.Fetch
			for from := 0; from < 4; from++ {
				fetches = append(fetches, task.Fetch{From: from, Bytes: 10e6})
			}
			tasks = append(tasks, &task.Task{Stage: stage, Index: i, Machine: i % 4, Fetches: fetches})
		}
		ms := run(c, g, tasks)
		out := make([]sim.Time, len(ms))
		for i, m := range ms {
			out[i] = m.End
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at task %d: %v vs %v", i, a[i], b[i])
		}
	}
}
