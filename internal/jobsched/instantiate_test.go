package jobsched

import (
	"slices"
	"testing"

	"repro/internal/task"
)

func diamondSpec(name string, tasks int) *task.JobSpec {
	return &task.JobSpec{Name: name, Stages: []*task.StageSpec{
		{ID: 0, Name: "a", NumTasks: tasks, InputFromMem: true, InputBytesPerTask: 1 << 20, OpCPU: 0.001, ShuffleOutBytes: 1 << 20},
		{ID: 1, Name: "b", NumTasks: tasks, ParentIDs: []int{0}, OpCPU: 0.001, ShuffleOutBytes: 1 << 20},
		{ID: 2, Name: "c", NumTasks: tasks, ParentIDs: []int{0}, OpCPU: 0.001, ShuffleOutBytes: 1 << 20},
		{ID: 3, Name: "d", NumTasks: tasks, ParentIDs: []int{1, 2}, OpCPU: 0.001},
	}}
}

// checkShape compares every stage's children and unfinished-parent count
// with the expected ones.
func checkShape(t *testing.T, h *JobHandle, children [][]int, waiting []int) {
	t.Helper()
	for i, st := range h.stages {
		if !slices.Equal(st.children, children[i]) || st.waitingOn != waiting[i] {
			t.Fatalf("stage %d: children %v, waiting on %d; want %v and %d",
				i, st.children, st.waitingOn, children[i], waiting[i])
		}
	}
}

// TestInstantiateShape checks the state instantiate derives from a diamond
// spec: children ascending, unfinished-parent counts, and every stage's
// per-task windows sized to its task count with all tasks queued in order.
// It then appends a stage e that lists the zero-byte stage d twice: e
// appears twice among d's children, waits on 2, and runs only after d
// finishes. d registers its empty output because it has children, so e can
// plan its fetches.
func TestInstantiateShape(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	h := &JobHandle{Spec: diamondSpec("diamond", 3), Metrics: &task.JobMetrics{Name: "diamond"}}
	d.instantiate(h)
	checkShape(t, h, [][]int{{1, 2}, {3}, {3}, nil}, []int{0, 1, 1, 2})
	hasChildren := []bool{true, true, true, false}
	for i, st := range h.stages {
		if got := len(st.children) > 0; got != hasChildren[i] {
			t.Fatalf("stage %d has children = %v, want %v", i, got, hasChildren[i])
		}
		if st.job != h || h.Metrics.Stages[i] != st.metrics || st.metrics.Spec != st.spec {
			t.Fatalf("stage %d is not wired to its job and metrics", i)
		}
		if !slices.Equal(st.pending, []int{0, 1, 2}) || !slices.Equal(st.queued, []bool{true, true, true}) {
			t.Fatalf("stage %d pending %v queued %v, want every task queued in order", i, st.pending, st.queued)
		}
		if len(st.doneTasks) != 3 || len(st.failures) != 3 || len(st.attempts) != 3 || len(st.metrics.Tasks) != 3 {
			t.Fatalf("stage %d per-task arrays are not sized to its 3 tasks", i)
		}
		for ti, a := range st.attempts {
			if len(a) != 0 || cap(a) != 1 {
				t.Fatalf("stage %d task %d attempt window len %d cap %d, want 0 and 1", i, ti, len(a), cap(a))
			}
		}
	}

	c := testCluster(t, 2)
	fd, _ := fakeDriver(t, c, 2, 1)
	spec := diamondSpec("repeat", 3)
	spec.Stages = append(spec.Stages, &task.StageSpec{ID: 4, Name: "e", NumTasks: 3, ParentIDs: []int{3, 3}, OpCPU: 0.001})
	h, err := fd.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, h, [][]int{{1, 2}, {3}, {3}, {4, 4}, nil}, []int{0, 1, 1, 2, 2})
	fd.Run()
	if !h.Done() {
		t.Fatalf("job with a repeated parent did not complete: %v", h.Err())
	}
	if start, end := h.Metrics.Stages[4].Start, h.Metrics.Stages[3].End; start < end {
		t.Fatalf("stage e started at %v, before its parent finished at %v", start, end)
	}
}
