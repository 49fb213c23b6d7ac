package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/task"
)

func TestNoSpareMultitaskDropsTheExtra(t *testing.T) {
	c, _ := cluster.New(1, testSpec(8, 2))
	with := NewWorker(c.Machines[0], c.Fabric, c.Engine, Options{})
	without := NewWorker(c.Machines[0], c.Fabric, c.Engine, Options{NoSpareMultitask: true})
	if with.MaxConcurrentTasks() != without.MaxConcurrentTasks()+1 {
		t.Fatalf("spare multitask accounting wrong: %d vs %d",
			with.MaxConcurrentTasks(), without.MaxConcurrentTasks())
	}
}

func TestFIFOQueueDiscipline(t *testing.T) {
	q := newFIFOQueue()
	a, b, c := mk(phaseOutput), mk(phaseInput), mk(phaseOutput)
	q.push(a)
	q.push(b)
	q.push(c)
	if q.len() != 3 {
		t.Fatalf("len = %d, want 3", q.len())
	}
	if q.pop() != a || q.pop() != b || q.pop() != c {
		t.Fatal("FIFO queue did not serve in arrival order")
	}
	if q.pop() != nil {
		t.Fatal("empty FIFO should pop nil")
	}
}

func TestDisablePhaseRoundRobinStarvesReads(t *testing.T) {
	// The §3.3 pathology in miniature: four writes queued ahead of a read.
	// Round robin serves the read second; FIFO serves it last.
	runReader := func(opts Options) float64 {
		c, _ := cluster.New(1, testSpec(4, 1))
		g := NewGroup(c, opts)
		writeStage := &task.StageSpec{ID: 0, Name: "w", NumTasks: 4, OutputBytes: 100e6}
		readStage := &task.StageSpec{ID: 1, Name: "r", NumTasks: 1, OpCPU: 0.1}
		for i := 0; i < 4; i++ {
			g.Workers[0].Launch(&task.Task{Stage: writeStage, Index: i, Machine: 0}, func(*task.TaskMetrics) {})
		}
		// The read arrives after the write backlog has formed (the writers'
		// zero-cost computes release their writes on the first dispatch).
		var end float64
		c.Engine.At(0.1, func() {
			g.Workers[0].Launch(&task.Task{Stage: readStage, Index: 0, Machine: 0, DiskReadBytes: 100e6},
				func(m *task.TaskMetrics) { end = float64(m.End) })
		})
		c.Engine.Run()
		return end
	}
	rr := runReader(Options{})
	fifo := runReader(Options{DisablePhaseRoundRobin: true})
	if fifo <= rr {
		t.Fatalf("FIFO reader end %v ≤ round-robin %v; starvation not reproduced", fifo, rr)
	}
}

func TestLoadAwareWritesPickShortestQueue(t *testing.T) {
	c, _ := cluster.New(1, testSpec(4, 2))
	w := NewWorker(c.Machines[0], c.Fabric, c.Engine, Options{LoadAwareWrites: true})
	// Occupy disk 0 with a long read so its scheduler has work.
	busy := &task.StageSpec{ID: 0, Name: "busy", NumTasks: 1}
	w.Launch(&task.Task{Stage: busy, Index: 0, Machine: 0, DiskReadBytes: 500e6, DiskReadDisk: 0},
		func(*task.TaskMetrics) {})
	if got := w.nextWriteDisk(); got != 1 {
		t.Fatalf("load-aware write chose disk %d, want 1 (disk 0 busy)", got)
	}
	// Round robin would have alternated regardless of load.
	w2 := NewWorker(c.Machines[0], c.Fabric, c.Engine, Options{})
	if a, b := w2.nextWriteDisk(), w2.nextWriteDisk(); a == b {
		t.Fatal("round robin did not alternate")
	}
	c.Engine.Run()
}

func TestHeterogeneousClusterSlowsStraggler(t *testing.T) {
	specs := []cluster.MachineSpec{testSpec(2, 1), testSpec(2, 1).Degraded(0.5)}
	c, err := cluster.NewHetero(specs)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup(c, Options{})
	stage := &task.StageSpec{ID: 0, Name: "cpu", NumTasks: 2, OpCPU: 10}
	var fast, slow float64
	g.Workers[0].Launch(&task.Task{Stage: stage, Index: 0, Machine: 0}, func(m *task.TaskMetrics) { fast = float64(m.End) })
	g.Workers[1].Launch(&task.Task{Stage: stage, Index: 1, Machine: 1}, func(m *task.TaskMetrics) { slow = float64(m.End) })
	c.Engine.Run()
	if fast != 10 {
		t.Fatalf("full-speed compute took %v, want 10", fast)
	}
	if slow != 20 {
		t.Fatalf("half-speed compute took %v, want 20", slow)
	}
}

func TestMemoryAccountingPeaksAndDrains(t *testing.T) {
	// §3.5: monotasks materialize whole task inputs and outputs in memory,
	// so memory in use peaks while tasks are in flight and returns to zero.
	c, _ := cluster.New(1, testSpec(2, 1))
	g := NewGroup(c, Options{})
	stage := &task.StageSpec{ID: 0, Name: "m", NumTasks: 2, OpCPU: 1, ShuffleOutBytes: 50e6}
	for i := 0; i < 2; i++ {
		g.Workers[0].Launch(&task.Task{Stage: stage, Index: i, Machine: 0, DiskReadBytes: 100e6},
			func(*task.TaskMetrics) {})
	}
	m := c.Machines[0]
	// Both multitasks are charged up front: 2 × (100 MB in + 50 MB out).
	if got := m.MemInUse(); got != 300e6 {
		t.Fatalf("in-flight memory = %d, want 3e8", got)
	}
	c.Engine.Run()
	if got := m.MemInUse(); got != 0 {
		t.Fatalf("memory after completion = %d, want 0", got)
	}
	if got := m.MemPeak(); got != 300e6 {
		t.Fatalf("peak memory = %d, want 3e8", got)
	}
}
