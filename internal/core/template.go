package core

import (
	"repro/internal/task"
)

// nodeSpec is one monotask blueprint inside a dagTemplate: the fields of a
// stage's decomposition (§3.2) that are identical for every task of the
// stage, precomputed once so per-task decomposition only stamps dynamic
// state (placement, disk cursors, resolved fetches).
type nodeSpec struct {
	resource task.Resource
	kind     task.Kind
	phase    int8
	bytes    int64
	deser    float64
	op       float64
	ser      float64
	memBytes int64
	memBW    float64
}

// dagTemplate memoizes the static skeleton of one stage's monotask DAG on
// one worker: the compute monotask's cost split, the output monotasks'
// kinds and sizes, and the metric count of the static portion. The input
// side varies per task (local read vs remote fetch vs cached memory), so it
// is resolved per decomposition; everything else comes from the template.
//
// Templates are keyed by *StageSpec, which is immutable once a job is
// submitted, so entries never go stale. Retries after a failure, machine
// exclusion, and speculative backups re-resolve tasks — possibly onto
// different machines — but never mutate the stage spec, so the template
// stays valid; the dynamic input side is rebuilt from the resolved Task on
// every launch.
type dagTemplate struct {
	spec    *task.StageSpec
	compute nodeSpec
	outputs []nodeSpec // 0..2 disk-write monotasks
	// staticMetrics counts the monotask metrics the static portion yields:
	// the compute monotask plus one per output write.
	staticMetrics int
}

// dagTemplateFor returns the worker's cached template for spec, building it
// on first use.
func (w *Worker) dagTemplateFor(spec *task.StageSpec) *dagTemplate {
	if t, ok := w.templates[spec]; ok {
		return t
	}
	t := &dagTemplate{spec: spec}
	t.compute = nodeSpec{
		resource: task.CPUResource,
		kind:     task.KindCompute,
		phase:    phaseCompute,
		deser:    spec.DeserCPU,
		op:       spec.OpCPU,
		ser:      spec.SerCPU,
		memBytes: spec.MemBytesPerTask,
		memBW:    spec.MemBWPerTask,
	}
	// Output monotasks are write-through disk writes (§3.1, principle 4).
	if spec.ShuffleOutBytes > 0 && !spec.ShuffleInMemory {
		t.outputs = append(t.outputs, nodeSpec{
			resource: task.DiskResource,
			kind:     task.KindShuffleWrite,
			phase:    phaseOutput,
			bytes:    spec.ShuffleOutBytes,
		})
	}
	if spec.OutputBytes > 0 && !spec.OutputToMem {
		t.outputs = append(t.outputs, nodeSpec{
			resource: task.DiskResource,
			kind:     task.KindOutputWrite,
			phase:    phaseOutput,
			bytes:    spec.OutputBytes,
		})
	}
	t.staticMetrics = 1 + len(t.outputs)
	w.templates[spec] = t
	return t
}

// metricsCap returns the exact number of monotask metrics task t will
// produce, including the serve-side disk reads other machines perform on its
// behalf (those are attributed to the requesting task, §3.3).
func (tp *dagTemplate) metricsCap(t *task.Task) int {
	n := tp.staticMetrics
	if t.DiskReadBytes > 0 {
		n++
	}
	if t.RemoteRead != nil {
		n += 2 // the net fetch plus the remote disk read attributed here
		if t.RemoteRead.FromMem {
			n--
		}
	}
	for _, f := range t.Fetches {
		switch {
		case f.From == t.Machine && f.FromMem:
			// already in memory here: no monotask at all
		case f.From == t.Machine:
			n++ // local disk read
		case f.FromMem:
			n++ // net fetch only
		default:
			n += 2 // net fetch plus the serving machine's disk read
		}
	}
	return n
}

// newMonotask takes a node struct from the worker's free list and binds it
// to mt. Monotasks are recycled in finish, which always runs on the worker
// that allocated the node (the machine whose scheduler served it).
func (w *Worker) newMonotask(mt *multitask) *monotask {
	var m *monotask
	if n := len(w.monoPool); n > 0 {
		m = w.monoPool[n-1]
		w.monoPool[n-1] = nil
		w.monoPool = w.monoPool[:n-1]
	} else {
		m = &monotask{}
	}
	m.owner = mt
	return m
}

// stampNode is newMonotask bound to a template blueprint: the node points
// at spec for its demand and copies the fields every monotask carries.
func (w *Worker) stampNode(mt *multitask, spec *nodeSpec) *monotask {
	m := w.newMonotask(mt)
	m.spec = spec
	m.resource = spec.resource
	m.kind = spec.kind
	m.phase = spec.phase
	m.bytes = spec.bytes
	return m
}

// recycleMono retires a finished monotask to the free list, keeping its
// dependents slice's capacity.
func (w *Worker) recycleMono(m *monotask) {
	deps := m.dependents[:0]
	for i := range m.dependents {
		m.dependents[i] = nil
	}
	*m = monotask{}
	m.dependents = deps
	w.monoPool = append(w.monoPool, m)
}

// newMultitask takes a multitask struct from the worker's free list. The
// completion thunk handed to the engine is bound once per struct lifetime,
// so repeated launches never re-allocate it.
func (w *Worker) newMultitask() *multitask {
	if n := len(w.mtPool); n > 0 {
		mt := w.mtPool[n-1]
		w.mtPool[n-1] = nil
		w.mtPool = w.mtPool[:n-1]
		return mt
	}
	mt := &multitask{}
	mt.completeFn = mt.complete
	return mt
}

// complete delivers the finished metrics to the driver and recycles the
// multitask struct. The struct is returned to the pool before the callback
// runs: every field the callback needs is extracted first, so a follow-on
// Launch inside the callback may immediately reuse it.
func (mt *multitask) complete() {
	w, done, metrics := mt.worker, mt.done, mt.metrics
	mt.t = nil
	mt.done = nil
	mt.metrics = nil
	mt.netEntry = nil
	w.mtPool = append(w.mtPool, mt)
	done(metrics)
}
