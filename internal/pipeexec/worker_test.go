package pipeexec

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
)

func testSpec(cores, disks int) cluster.MachineSpec {
	ds := make([]resource.DiskSpec, disks)
	for i := range ds {
		// α applies to reads and writes alike and floors are disabled, so
		// timing expectations reduce to clean arithmetic.
		ds[i] = resource.DiskSpec{
			Kind: resource.HDD, SeqBW: 100e6, SeekTime: 0,
			ContentionAlpha: 0.35, StreamingAlpha: 0.35,
			MixedFloorFrac: 0.01, StreamFloorFrac: 0.01,
		}
	}
	return cluster.MachineSpec{Cores: cores, Disks: ds, NetBW: 100e6, MemBytes: 1 << 30}
}

func newTestGroup(t *testing.T, machines, cores, disks int, opts Options) (*cluster.Cluster, *Group) {
	t.Helper()
	c, err := cluster.New(machines, testSpec(cores, disks))
	if err != nil {
		t.Fatal(err)
	}
	return c, NewGroup(c, opts)
}

func run(c *cluster.Cluster, g *Group, tasks []*task.Task) []*task.TaskMetrics {
	out := make([]*task.TaskMetrics, len(tasks))
	for i, tk := range tasks {
		i := i
		g.Workers[tk.Machine].Launch(tk, func(m *task.TaskMetrics) { out[i] = m })
	}
	c.Engine.Run()
	return out
}

func within(got, want, tol sim.Time) bool { return math.Abs(float64(got-want)) <= float64(tol) }

func TestFineGrainedPipeliningOverlapsReadAndCompute(t *testing.T) {
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "map", NumTasks: 1, OpCPU: 1}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0, DiskReadBytes: 100e6}
	m := run(c, g, []*task.Task{tk})[0]
	// 1 s of disk + 1 s of CPU, pipelined chunk-wise: ≈ max(1,1) + one
	// chunk's latency, far below the 2 s a monotask decomposition takes.
	if m.End > 1.25 {
		t.Fatalf("pipelined task took %v; fine-grained pipelining broken (serial would be 2.0)", m.End)
	}
	if m.End < 1.0 {
		t.Fatalf("pipelined task took %v; cannot beat the bottleneck resource", m.End)
	}
	if len(m.Monotasks) != 0 {
		t.Fatalf("pipelined executor reported %d monotasks; it must not be able to", len(m.Monotasks))
	}
}

func TestBufferedWritesAreAsync(t *testing.T) {
	// Below the dirty hard limit (2 × MemBytes/20 ≈ 107 MB here), writes
	// land in the buffer cache and the task pays only CPU.
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "w", NumTasks: 1, OpCPU: 0.1, ShuffleOutBytes: 80e6}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0}
	m := run(c, g, []*task.Task{tk})[0]
	if !within(m.End, 0.1, 0.01) {
		t.Fatalf("buffered-write task took %v, want ≈0.1 (writes in cache)", m.End)
	}
}

func TestDirtyThrottlingBlocksWriters(t *testing.T) {
	// Past the hard limit, the writing thread blocks on writeback — the
	// kernel, not the framework, controls when the task runs again (§2.2),
	// and this is what produces Fig. 2's everyone-blocked-on-disk moments.
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "w", NumTasks: 1, OpCPU: 0.1, ShuffleOutBytes: 400e6}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0}
	m := run(c, g, []*task.Task{tk})[0]
	// ~293 MB must reach the disk within the task (400 − 107 hard limit),
	// at 100 MB/s ⇒ well over 2 s.
	if m.End < 2 {
		t.Fatalf("over-limit writer finished at %v; dirty throttling not applied", m.End)
	}
	if m.End > 5 {
		t.Fatalf("over-limit writer took %v; throttle should release as the flusher drains", m.End)
	}
}

func TestDirtyDataFlushedUnderPressure(t *testing.T) {
	// Dirty limit is 10% of 1 GB ≈ 107 MB; writing 400 MB must trigger
	// background device writes during the job.
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "w", NumTasks: 1, OpCPU: 1, ShuffleOutBytes: 400e6}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0}
	run(c, g, []*task.Task{tk})
	if got := c.Machines[0].Disks[0].BytesWritten(); got == 0 {
		t.Fatal("no background flush despite dirty bytes over the limit")
	}
}

func TestDirtyDataFlushedByAgeEventually(t *testing.T) {
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "w", NumTasks: 1, OpCPU: 0.1, ShuffleOutBytes: 50e6}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0}
	run(c, g, []*task.Task{tk}) // Run drains all events, including the 30 s expiry
	if g.Workers[0].DirtyBytes() != 0 {
		t.Fatalf("dirty bytes = %d after expiry, want 0", g.Workers[0].DirtyBytes())
	}
	if got := c.Machines[0].Disks[0].BytesWritten(); got != 50e6 {
		t.Fatalf("flushed %d bytes, want 5e7", got)
	}
}

func TestSmallWritesStayInCacheDuringJob(t *testing.T) {
	// The Fig. 5 query-1c effect: a small output never reaches disk while
	// the job runs, so Spark pays nothing for it.
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "w", NumTasks: 1, OpCPU: 0.5, OutputBytes: 50e6}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0}
	var end sim.Time
	g.Workers[0].Launch(tk, func(m *task.TaskMetrics) { end = m.End })
	c.Engine.RunUntil(5) // before the 30 s age flush
	if end == 0 || !within(end, 0.5, 0.05) {
		t.Fatalf("task end = %v, want ≈0.5", end)
	}
	if got := c.Machines[0].Disks[0].BytesWritten(); got != 0 {
		t.Fatalf("disk saw %d bytes during job, want 0 (still dirty)", got)
	}
}

func TestConcurrentTasksContendOnDisk(t *testing.T) {
	// Four tasks reading 100 MB each from one HDD concurrently pay the
	// streaming-contention penalty (α = 0.35 with the test spec's disabled
	// floors behaves like the mixed case): the batch takes ≈2× the
	// serialized time. This is the §5.4 contention MonoSpark eliminates.
	c, g := newTestGroup(t, 1, 4, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "r", NumTasks: 4, OpCPU: 0.01}
	var tasks []*task.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &task.Task{Stage: stage, Index: i, Machine: 0, DiskReadBytes: 100e6})
	}
	ms := run(c, g, tasks)
	var last sim.Time
	for _, m := range ms {
		if m.End > last {
			last = m.End
		}
	}
	if last < 6.5 {
		t.Fatalf("4 contending readers finished at %v; expected ≈8 s (2× collapse of 4 s serial)", last)
	}
}

func TestRemoteShuffleFetchThroughCache(t *testing.T) {
	c, g := newTestGroup(t, 2, 1, 1, Options{})
	// Machine 1 "ran a map" whose 100 MB shuffle output is in its cache.
	g.Workers[1].cache.write(0, 100e6)
	reduce := &task.StageSpec{ID: 1, Name: "red", NumTasks: 1, ParentIDs: []int{0}, OpCPU: 0.1}
	tk := &task.Task{
		Stage: reduce, Index: 0, Machine: 0,
		Fetches: []task.Fetch{{From: 1, Bytes: 100e6, Stage: 0}},
	}
	m := run(c, g, []*task.Task{tk})[0]
	// Serve side is a pure cache hit: only the 1 s transfer plus compute.
	if m.End > 1.3 {
		t.Fatalf("cache-served fetch took %v; remote disk should not be touched", m.End)
	}
	if got := c.Machines[1].Disks[0].BytesRead(); got != 0 {
		t.Fatalf("remote disk read %d bytes, want 0 (cache hit)", got)
	}
}

func TestRemoteShuffleFetchFromDiskWhenNotCached(t *testing.T) {
	c, g := newTestGroup(t, 2, 1, 1, Options{})
	reduce := &task.StageSpec{ID: 1, Name: "red", NumTasks: 1, ParentIDs: []int{0}, OpCPU: 0.1}
	tk := &task.Task{
		Stage: reduce, Index: 0, Machine: 0,
		Fetches: []task.Fetch{{From: 1, Bytes: 100e6, Stage: 0}},
	}
	run(c, g, []*task.Task{tk})
	if got := c.Machines[1].Disks[0].BytesRead(); got == 0 {
		t.Fatal("uncached shuffle data should be read from the remote disk")
	}
}

func TestGeneratorStageComputesWithoutInput(t *testing.T) {
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "gen", NumTasks: 1, OpCPU: 2}
	m := run(c, g, []*task.Task{{Stage: stage, Index: 0, Machine: 0}})[0]
	if !within(m.End, 2, 0.01) {
		t.Fatalf("generator task took %v, want 2", m.End)
	}
}

func TestCPUConservation(t *testing.T) {
	// Uneven chunk sizes must still charge exactly the task's CPU total:
	// a single task on an otherwise idle machine finishes compute-bound
	// work in exactly DeserCPU+OpCPU+SerCPU.
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 1, DeserCPU: 0.3, OpCPU: 1.1, SerCPU: 0.6}
	tk := &task.Task{Stage: stage, Index: 0, Machine: 0, MemReadBytes: 100e6}
	m := run(c, g, []*task.Task{tk})[0]
	if !within(m.End, 2.0, 1e-6) {
		t.Fatalf("compute-only task took %v, want exactly 2.0 (CPU conservation)", m.End)
	}
}

func TestProcessorSharingWhenOversubscribed(t *testing.T) {
	// 4 slots on a 2-core machine: compute-bound tasks run at half speed.
	c, g := newTestGroup(t, 1, 2, 1, Options{TasksPerMachine: 4})
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 4, OpCPU: 1}
	var tasks []*task.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &task.Task{Stage: stage, Index: i, Machine: 0, MemReadBytes: 8e6})
	}
	ms := run(c, g, tasks)
	for i, m := range ms {
		if !within(m.End, 2, 0.05) {
			t.Fatalf("task %d finished at %v, want ≈2 (processor sharing)", i, m.End)
		}
	}
}

func TestMaxConcurrentTasksDefaultsToCores(t *testing.T) {
	_, g := newTestGroup(t, 1, 8, 2, Options{})
	if got := g.Workers[0].MaxConcurrentTasks(); got != 8 {
		t.Fatalf("slots = %d, want 8 (cores)", got)
	}
	_, g2 := newTestGroup(t, 1, 8, 2, Options{TasksPerMachine: 16})
	if got := g2.Workers[0].MaxConcurrentTasks(); got != 16 {
		t.Fatalf("slots = %d, want 16 (configured)", got)
	}
}

func TestDoneCalledExactlyOnce(t *testing.T) {
	c, g := newTestGroup(t, 1, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 1, OpCPU: 0.5, ShuffleOutBytes: 10e6}
	calls := 0
	g.Workers[0].Launch(&task.Task{Stage: stage, Index: 0, Machine: 0, DiskReadBytes: 50e6},
		func(*task.TaskMetrics) { calls++ })
	c.Engine.Run()
	if calls != 1 {
		t.Fatalf("done called %d times, want 1", calls)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []sim.Time {
		c, g := newTestGroup(t, 2, 2, 2, Options{})
		stage := &task.StageSpec{ID: 1, Name: "r", NumTasks: 8, ParentIDs: []int{0}, OpCPU: 0.3, ShuffleOutBytes: 5e6}
		var tasks []*task.Task
		for i := 0; i < 8; i++ {
			tasks = append(tasks, &task.Task{
				Stage: stage, Index: i, Machine: i % 2,
				Fetches: []task.Fetch{{From: (i + 1) % 2, Bytes: 20e6, Stage: 0}},
			})
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

func TestUtilizationOscillatesUnderPipelining(t *testing.T) {
	// The Fig. 2 phenomenon in miniature: tasks alternating read/compute on
	// one machine leave both resources partially idle at different moments.
	c, g := newTestGroup(t, 1, 2, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 2, OpCPU: 1.5}
	tasks := []*task.Task{
		{Stage: stage, Index: 0, Machine: 0, DiskReadBytes: 100e6},
		{Stage: stage, Index: 1, Machine: 0, DiskReadBytes: 100e6},
	}
	ms := run(c, g, tasks)
	var end sim.Time
	for _, m := range ms {
		if m.End > end {
			end = m.End
		}
	}
	cpuUtil := c.Machines[0].CPU.Util.Mean(0, end)
	diskUtil := c.Machines[0].Disks[0].Util.Mean(0, end)
	if cpuUtil > 0.99 && diskUtil > 0.99 {
		t.Fatal("both resources pegged; expected pipeline bubbles")
	}
	if cpuUtil < 0.1 || diskUtil < 0.1 {
		t.Fatalf("utilization cpu=%v disk=%v; pipeline not overlapping at all", cpuUtil, diskUtil)
	}
}

func TestLaunchOnWrongMachinePanics(t *testing.T) {
	_, g := newTestGroup(t, 2, 1, 1, Options{})
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 1, OpCPU: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("launching machine-1 task on worker 0 did not panic")
		}
	}()
	g.Workers[0].Launch(&task.Task{Stage: stage, Index: 0, Machine: 1}, func(*task.TaskMetrics) {})
}
