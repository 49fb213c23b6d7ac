package pipeexec

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/task"
)

func TestPartialCacheFetchCompletes(t *testing.T) {
	// 60 MB of memory derives a 10 MB cache and a 3 MB dirty limit.
	spec := testSpec(2, 2)
	spec.MemBytes = 60e6
	c, err := cluster.New(2, spec)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup(c, Options{})
	g.Workers[1].cache.write(0, 30e6) // resident capped at 10 MB
	reduce := &task.StageSpec{ID: 1, Name: "red", NumTasks: 1, ParentIDs: []int{0}, OpCPU: 0.1, OutputBytes: 30e6}
	tk := &task.Task{
		Stage: reduce, Index: 0, Machine: 0,
		Fetches: []task.Fetch{{From: 1, Bytes: 30e6, Stage: 0}},
	}
	var done bool
	g.Workers[0].Launch(tk, func(*task.TaskMetrics) { done = true })
	c.Engine.RunUntil(100)
	if !done {
		t.Fatalf("reduce with partial cache hit stalled; pending events=%d", c.Engine.Len())
	}
}
