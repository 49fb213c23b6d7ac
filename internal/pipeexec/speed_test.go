package pipeexec

import (
	"fmt"
	"testing"

	"repro/internal/task"
)

// speedRun executes a small shuffle-heavy workload on `machines` workers and
// renders every task's end time at full precision. With slow set, machine
// 1's CPU, disks and NIC run at half speed from 0.15 s to 0.4 s of virtual
// time — a straggler fault arriving while chunks are in flight.
func speedRun(t *testing.T, machines int, slow bool) string {
	t.Helper()
	c, g := newTestGroup(t, machines, 2, 1, Options{})
	mapStage := &task.StageSpec{ID: 0, Name: "map", NumTasks: machines, OpCPU: 0.3, ShuffleOutBytes: 40e6}
	redStage := &task.StageSpec{ID: 1, Name: "reduce", NumTasks: machines, OpCPU: 0.2}
	var tasks []*task.Task
	for m := 0; m < machines; m++ {
		tasks = append(tasks, &task.Task{Stage: mapStage, Index: m, Machine: m, DiskReadBytes: 60e6})
	}
	for m := 0; m < machines; m++ {
		fetches := make([]task.Fetch, 0, machines-1)
		for from := 0; from < machines; from++ {
			if from != m {
				fetches = append(fetches, task.Fetch{From: from, Bytes: 15e6, Stage: 0})
			}
		}
		tasks = append(tasks, &task.Task{Stage: redStage, Index: m, Machine: m, Fetches: fetches})
	}
	if slow {
		c.Engine.After(0.15, func() { c.SetMachineSpeed(1, 0.5) })
		c.Engine.After(0.4, func() { c.SetMachineSpeed(1, 1.0) })
	}
	var buf []byte
	for i, m := range run(c, g, tasks) {
		if m == nil {
			t.Fatalf("task %d never completed", i)
		}
		buf = append(buf, fmt.Sprintf("task=%d end=%.9f\n", i, float64(m.End))...)
	}
	return string(buf)
}

// TestMidRunMachineSpeedDeterministic pins that a mid-run SetMachineSpeed
// change on the pipelined executor perturbs task timings and reproduces
// them bit for bit on a second run.
func TestMidRunMachineSpeedDeterministic(t *testing.T) {
	const machines = 4
	want := speedRun(t, machines, true)
	if want == speedRun(t, machines, false) {
		t.Fatal("mid-run slowdown left every task timing unchanged")
	}
	if got := speedRun(t, machines, true); got != want {
		t.Fatalf("repeated run diverged:\ngot:\n%swant:\n%s", got, want)
	}
}
