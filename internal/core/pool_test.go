package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/task"
)

// shuffleTasks is a reduce stage on every machine of an n-machine cluster,
// each task fetching from every machine and writing shuffle output, so a
// run fills every free list: monotasks, multitasks, compute and disk ops,
// fetch ops and network admission entries.
func shuffleTasks(n int) []*task.Task {
	stage := &task.StageSpec{ID: 1, Name: "r", NumTasks: 4 * n, ParentIDs: []int{0}, OpCPU: 0.3, ShuffleOutBytes: 5e6}
	var tasks []*task.Task
	for i := 0; i < 4*n; i++ {
		var fetches []task.Fetch
		for from := 0; from < n; from++ {
			fetches = append(fetches, task.Fetch{From: from, Bytes: 10e6})
		}
		tasks = append(tasks, &task.Task{Stage: stage, Index: i, Machine: i % n, Fetches: fetches})
	}
	return tasks
}

// cleared reports the first field of the struct *p that still holds a
// pointer, slice element, map or func, other than the fields keep names.
// A kept slice must be empty and hold no pointer within its capacity.
func cleared(p any, keep ...string) error {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		kept := false
		for _, k := range keep {
			kept = kept || k == name
		}
		switch f.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Func, reflect.Interface:
			if !kept && !f.IsNil() {
				return fmt.Errorf("%T.%s is set", p, name)
			}
		case reflect.Slice:
			if !kept && !f.IsNil() || f.Len() > 0 {
				return fmt.Errorf("%T.%s holds %d elements", p, name, f.Len())
			}
			for j := 0; j < f.Cap(); j++ {
				if !f.Slice(0, f.Cap()).Index(j).IsNil() {
					return fmt.Errorf("%T.%s keeps a pointer past its length", p, name)
				}
			}
		}
	}
	return nil
}

// TestRetiredListsHoldNoRunPointer checks that a retired worker's free
// lists reach nothing of the run that filled them: no task, metric record,
// callback, worker or scheduler, only each struct's own completion thunks
// and empty reused slices. A pooled set that kept a scheduler or a worker
// would keep the whole finished cluster alive.
func TestRetiredListsHoldNoRunPointer(t *testing.T) {
	c, g := newTestGroup(t, 3, 2, 2)
	run(c, g, shuffleTasks(3))
	for i, w := range g.Workers {
		fl := w.retire()
		if len(fl.monos) == 0 || len(fl.mts) == 0 || len(fl.compute) == 0 ||
			len(fl.fetches) == 0 || len(fl.entries) == 0 || len(fl.disks) != 2 ||
			len(fl.disks[0])+len(fl.disks[1]) == 0 {
			t.Fatalf("worker %d: the run left an empty free list: %d monotasks, %d multitasks, %d compute ops, %d fetch ops, %d entries, disks %v",
				i, len(fl.monos), len(fl.mts), len(fl.compute), len(fl.fetches), len(fl.entries), fl.disks)
		}
		if w.monoPool != nil || w.mtPool != nil || w.compute.ops != nil || w.network.ops != nil ||
			w.network.entries != nil || w.disks[0].ops != nil || w.disks[1].ops != nil {
			t.Errorf("worker %d still holds free lists after retiring them", i)
		}
		var errs []error
		for _, m := range fl.monos {
			errs = append(errs, cleared(m, "dependents"))
		}
		for _, mt := range fl.mts {
			errs = append(errs, cleared(mt, "completeFn"))
		}
		for _, op := range fl.compute {
			errs = append(errs, cleared(op, "fn"))
		}
		for _, ops := range fl.disks {
			for _, op := range ops {
				errs = append(errs, cleared(op, "fn"))
			}
		}
		for _, op := range fl.fetches {
			errs = append(errs, cleared(op, "startFn", "transferFn", "doneFn"))
		}
		for _, e := range fl.entries {
			errs = append(errs, cleared(e, "pending"))
		}
		for _, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
	}
}

// TestAdoptedListsRunLikeFresh hands each retired set to a worker of a new
// cluster with fewer drives and checks that every op is bound to its new
// scheduler and that the second run's metrics equal a run from empty lists.
func TestAdoptedListsRunLikeFresh(t *testing.T) {
	c, g := newTestGroup(t, 3, 2, 2)
	run(c, g, shuffleTasks(3))
	var sets []*freeLists
	for _, w := range g.Workers {
		sets = append(sets, w.retire())
	}

	fresh := func() (*cluster.Cluster, *Group) {
		c, g := newTestGroup(t, 3, 2, 1)
		for _, w := range g.Workers {
			w.retire() // whatever the package pool handed over
		}
		return c, g
	}
	c1, g1 := fresh()
	want := run(c1, g1, shuffleTasks(3))
	c2, g2 := fresh()
	for i, w := range g2.Workers {
		w.adopt(sets[i])
		for _, op := range w.compute.ops {
			if op.cs != w.compute {
				t.Fatalf("worker %d: adopted compute op bound to another scheduler", i)
			}
		}
		for _, op := range w.disks[0].ops {
			if op.ds != w.disks[0] {
				t.Fatalf("worker %d: adopted disk op bound to another scheduler", i)
			}
		}
		for _, op := range w.network.ops {
			if op.ns != w.network {
				t.Fatalf("worker %d: adopted fetch op bound to another scheduler", i)
			}
		}
	}
	got := run(c2, g2, shuffleTasks(3))
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("task %d: metrics from adopted lists %+v, from empty lists %+v", i, got[i], want[i])
		}
	}
}

// TestStoppedMachineRecordsNoQueueTimeline checks that a worker built on a
// machine whose timelines are stopped records no queue lengths.
func TestStoppedMachineRecordsNoQueueTimeline(t *testing.T) {
	c, err := cluster.New(2, testSpec(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.StopTimelines()
	g := NewGroup(c, Options{})
	run(c, g, shuffleTasks(2))
	for i, w := range g.Workers {
		for name, tr := range w.QueueTimelines() {
			if n := tr.Len(); n != 0 {
				t.Errorf("worker %d: %s queue timeline holds %d points on a stopped machine", i, name, n)
			}
		}
	}
}
