package core

import "sync"

// freeLists is one worker's free lists of per-task structs, carried from a
// finished run to a worker built later, so a new run starts from the last
// one's free lists instead of regrowing them from empty. Every pointer into
// the run that filled them is cleared before the set is pooled: a pooled
// set keeps no cluster alive, and a worker that takes it up shares nothing
// with the worker that retired it. The structs' completion thunks are
// bound to the structs themselves and travel with them.
type freeLists struct {
	monos   []*monotask
	mts     []*multitask
	compute []*computeOp
	disks   [][]*diskOp // per drive, in the retiring worker's order
	fetches []*fetchOp
	entries []*netEntry
}

// retired holds the sets of retired workers. A set is taken whole by one
// worker, so concurrent runs share no mutable state through it.
var retired sync.Pool

// Retire hands every worker's free lists to the package pool, from which
// workers built later take them up (NewWorker). Call it once the group's
// run has drained. A worker stays usable afterwards, starting from empty
// free lists; structs still in flight (an aborted run's) are not pooled.
func (g *Group) Retire() {
	for _, w := range g.Workers {
		retired.Put(w.retire())
	}
}

// retire empties w's free lists into a set, clearing every pointer back
// into w's run: multitasks' worker, and the ops' schedulers (monotasks,
// multitasks, ops and entries clear the rest as they are recycled).
func (w *Worker) retire() *freeLists {
	fl := &freeLists{
		monos:   w.monoPool,
		mts:     w.mtPool,
		compute: w.compute.ops,
		fetches: w.network.ops,
		entries: w.network.entries,
	}
	w.monoPool, w.mtPool = nil, nil
	w.compute.ops, w.network.ops, w.network.entries = nil, nil, nil
	for _, mt := range fl.mts {
		mt.worker = nil
	}
	for _, op := range fl.compute {
		op.cs = nil
	}
	for _, ds := range w.disks {
		for _, op := range ds.ops {
			op.ds = nil
		}
		fl.disks = append(fl.disks, ds.ops)
		ds.ops = nil
	}
	for _, op := range fl.fetches {
		op.ns = nil
	}
	return fl
}

// adopt takes up a retired set, binding its ops to w's schedulers. A set
// from a worker with more drives leaves the extra drives' ops behind.
func (w *Worker) adopt(fl *freeLists) {
	w.monoPool, w.mtPool = fl.monos, fl.mts
	w.compute.ops = fl.compute
	for _, op := range fl.compute {
		op.cs = w.compute
	}
	for i, ds := range w.disks[:min(len(w.disks), len(fl.disks))] {
		ds.ops = fl.disks[i]
		for _, op := range ds.ops {
			op.ds = ds
		}
	}
	w.network.ops, w.network.entries = fl.fetches, fl.entries
	for _, op := range fl.fetches {
		op.ns = w.network
	}
}
