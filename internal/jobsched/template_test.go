package jobsched

import (
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

func TestBuildTemplateShape(t *testing.T) {
	tpl := buildTemplate(diamondSpec("diamond", 3))
	if tpl.numStages != 4 || tpl.totalTasks != 12 {
		t.Fatalf("template shape = %d stages / %d tasks, want 4 / 12", tpl.numStages, tpl.totalTasks)
	}
	wantChildren := [][]int{{1, 2}, {3}, {3}, nil}
	for i, want := range wantChildren {
		got := tpl.children[i]
		if len(got) != len(want) {
			t.Fatalf("stage %d children = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("stage %d children = %v, want %v", i, got, want)
			}
		}
	}
	if w := tpl.waitingOn; w[0] != 0 || w[1] != 1 || w[2] != 1 || w[3] != 2 {
		t.Fatalf("waitingOn = %v, want [0 1 1 2]", w)
	}
	if h := tpl.hasChildren; !h[0] || !h[1] || !h[2] || h[3] {
		t.Fatalf("hasChildren = %v, want [true true true false]", h)
	}
}

func TestTemplateCacheReuseAndBypass(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	specA := diamondSpec("a", 3)
	tplA := d.templateFor(specA)
	if got := d.templateFor(diamondSpec("b", 3)); got != tplA {
		t.Fatal("same-shaped spec did not hit the template cache")
	}
	tplC := d.templateFor(diamondSpec("c", 5))
	if tplC == tplA {
		t.Fatal("different task count reused a mismatched template")
	}
	if got := d.templateFor(diamondSpec("d", 5)); got != tplC {
		t.Fatal("second shape was not cached alongside the first")
	}

	// The cache belongs to its driver: a fresh driver builds its own.
	_, other := monoDriver(t, 2, Config{})
	if got := other.templateFor(specA); got == tplA {
		t.Fatal("two drivers shared one template cache")
	}

	// An emptied cache is bypassed: the next lookup builds afresh.
	d.templates = nil
	if got := d.templateFor(specA); got == tplA {
		t.Fatal("emptied cache still served the old template")
	}
}

// TestTemplateCollisionGuard forces two differently-shaped specs onto one
// cache key and checks the structural re-validation bypasses the stale hit.
func TestTemplateCollisionGuard(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	specA := diamondSpec("a", 3)
	tplA := d.templateFor(specA)
	// The real fingerprint includes parent edges, so two different shapes
	// never share a key in practice; plant the stale template by hand to
	// exercise the guard.
	specB := diamondSpec("b", 3)
	specB.Stages[3].ParentIDs = []int{1}
	d.templates[string(d.fingerprint(specB))] = tplA
	got := d.templateFor(specB)
	if got == tplA {
		t.Fatal("collision guard accepted a structurally mismatched template")
	}
	if got.waitingOn[3] != 1 {
		t.Fatalf("fresh template waitingOn[3] = %d, want 1", got.waitingOn[3])
	}
}

// TestInstantiateMatchesDirectBuild instantiates the same diamond from a
// cached template (a real cache hit, after a same-shaped submission) and
// from a template built directly from the spec, then compares every piece
// of initial stage state.
func TestInstantiateMatchesDirectBuild(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	warm, err := d.Submit(diamondSpec("warm", 3))
	if err != nil {
		t.Fatal(err)
	}
	ha := &JobHandle{Spec: diamondSpec("a", 3), Metrics: &task.JobMetrics{Name: "a"}}
	cached := d.templateFor(ha.Spec)
	if cached != warm.tpl {
		t.Fatal("same-shaped spec missed the template cache")
	}
	d.instantiate(ha, cached)
	hb := &JobHandle{Spec: diamondSpec("b", 3), Metrics: &task.JobMetrics{Name: "b"}}
	d.instantiate(hb, buildTemplate(hb.Spec))
	if len(ha.stages) != len(hb.stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(ha.stages), len(hb.stages))
	}
	for i := range ha.stages {
		a, b := ha.stages[i], hb.stages[i]
		if a.waitingOn != b.waitingOn || a.hasChildren != b.hasChildren {
			t.Fatalf("stage %d state differs: waitingOn %d/%d hasChildren %v/%v",
				i, a.waitingOn, b.waitingOn, a.hasChildren, b.hasChildren)
		}
		if len(a.pending) != len(b.pending) || len(a.doneTasks) != len(b.doneTasks) ||
			len(a.failures) != len(b.failures) || len(a.attempts) != a.spec.NumTasks || len(b.attempts) != b.spec.NumTasks {
			t.Fatalf("stage %d per-task arrays sized differently", i)
		}
		for ti := range a.pending {
			if a.pending[ti] != b.pending[ti] {
				t.Fatalf("stage %d pending order differs: %v vs %v", i, a.pending, b.pending)
			}
		}
	}
}
