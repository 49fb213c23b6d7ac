// Package shuffle tracks map outputs between stages, playing the role of
// Spark's MapOutputTracker: when a stage finishes, each of its tasks has
// registered where it ran and how much shuffle data it produced; reduce
// tasks in child stages then plan fetches against those locations.
package shuffle

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/task"
)

// mapStatus is one map task's registered output.
type mapStatus struct {
	machine    int
	bytes      int64
	inMem      bool
	registered bool
}

// fetchKey aggregates fetch bytes per (machine, parent stage, in-memory).
type fetchKey struct {
	machine int
	stage   int
	inMem   bool
}

// stageOutputs is one stage's registrations, indexed by task (task indices
// are dense, so a slice replaces a map and iterates in task order).
type stageOutputs struct {
	tasks []mapStatus
	// gen is the tracker-wide stamp of the stage's last change; a fetch
	// plan records its parents' stamps and is stale once any differs.
	gen uint64
	// plans are the fetch plans whose first parent is this stage.
	plans []*fetchPlan
}

// fetchPlan holds every reducer's fetches over one set of parent stages.
// Reducer r of R takes ⌊b/R⌋ of a map output of b bytes, plus one byte
// when r < b mod R. So for one key (machine, parent stage, in-memory) its
// total is base + |{m in rems : m > r}|, where base is Σ⌊b/R⌋ over the
// key's outputs and rems holds their nonzero remainders b mod R, sorted.
// Integer addition does not depend on order, so this equals summing the
// shares output by output. A plan is valid while every parent's gen equals
// the one it was built against; any RegisterMapOutput, RemoveMachine that
// drops an output, or Clear of a parent gives that parent a new gen.
type fetchPlan struct {
	parents  []int
	gens     []uint64
	reducers int
	keys     []planKey // by machine, then stage, then disk before memory
	rems     []int64   // backing array of the keys' remainders
}

// planKey is one (machine, parent stage, in-memory) key of a plan.
type planKey struct {
	fetchKey
	base int64
	rems []int64 // ascending
}

// slotAcc accumulates one dense (machine, parent rank, in-memory) slot while
// a plan is built.
type slotAcc struct {
	base int64
	n    int // outputs with a nonzero remainder
	off  int // start of the slot's remainders in the plan's rems
}

// Tracker records map outputs per stage, keyed by task index so that a
// re-executed task replaces its earlier registration (fault recovery) and a
// machine's outputs can be invalidated when it fails.
type Tracker struct {
	byStage map[int]*stageOutputs
	gen     uint64
	// Records and plans of cleared stages, reused so a long-lived driver
	// that clears each finished job's stages allocates none in steady state.
	freeStages []*stageOutputs
	freePlans  []*fetchPlan
	// Scratch for building plans (the tracker, like the engine it serves, is
	// single-threaded).
	recScratch  []*stageOutputs
	idScratch   []int
	rankScratch []int
	slotScratch []slotAcc
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{byStage: make(map[int]*stageOutputs)}
}

// touch gives a stage a fresh stamp, so every plan built over it is stale.
func (tr *Tracker) touch(s *stageOutputs) {
	tr.gen++
	s.gen = tr.gen
}

// RegisterMapOutput records that task taskIdx of the given stage ran on
// machine and produced shuffleBytes ≥ 0 of output (inMem if the stage keeps
// shuffle data in memory). Re-registering an index overwrites the earlier
// entry.
func (tr *Tracker) RegisterMapOutput(stageID, taskIdx, machine int, shuffleBytes int64, inMem bool) {
	s := tr.byStage[stageID]
	if s == nil {
		if n := len(tr.freeStages); n > 0 {
			s = tr.freeStages[n-1]
			tr.freeStages = tr.freeStages[:n-1]
		} else {
			s = &stageOutputs{}
		}
		tr.byStage[stageID] = s
	}
	for len(s.tasks) <= taskIdx {
		s.tasks = append(s.tasks, mapStatus{})
	}
	s.tasks[taskIdx] = mapStatus{machine: machine, bytes: shuffleBytes, inMem: inMem, registered: true}
	tr.touch(s)
}

// RemoveMachine drops every registration the stage holds on the given
// machine (the machine failed, its shuffle files are gone) and returns the
// affected task indices, ascending, which must be re-executed.
func (tr *Tracker) RemoveMachine(stageID, machine int) []int {
	s := tr.byStage[stageID]
	if s == nil {
		return nil
	}
	var lost []int
	for ti := range s.tasks {
		if m := &s.tasks[ti]; m.registered && m.machine == machine {
			*m = mapStatus{}
			lost = append(lost, ti)
		}
	}
	if lost != nil {
		tr.touch(s)
	}
	return lost
}

// StageOutputBytes reports the total registered shuffle output of a stage.
func (tr *Tracker) StageOutputBytes(stageID int) int64 {
	var sum int64
	if s := tr.byStage[stageID]; s != nil {
		for _, m := range s.tasks {
			sum += m.bytes
		}
	}
	return sum
}

// FetchesFor plans reducer r of numReducers' fetches over the shuffle
// outputs of the given parent stages. Each map output is split evenly over
// reducers (remainder bytes go to the lowest-indexed reducers, so reducer
// loads differ by at most one byte per map). Fetches are aggregated per
// (machine, parent stage, in-memory) and returned in that order. The first
// reducer to ask builds the plan for all numReducers of them (see
// fetchPlan); later ones read it until a parent's registrations change.
func (tr *Tracker) FetchesFor(parentIDs []int, r, numReducers int) ([]task.Fetch, error) {
	if numReducers <= 0 || r < 0 || r >= numReducers {
		return nil, fmt.Errorf("shuffle: reducer %d of %d out of range", r, numReducers)
	}
	if len(parentIDs) == 0 {
		return []task.Fetch{}, nil
	}
	recs := tr.recScratch[:0]
	for _, pid := range parentIDs {
		s := tr.byStage[pid]
		if s == nil {
			return nil, fmt.Errorf("shuffle: stage %d has no registered map output", pid)
		}
		recs = append(recs, s)
	}
	tr.recScratch = recs
	pl := tr.planFor(parentIDs, numReducers, recs)
	n := 0 // keys with bytes for r: the list is allocated at its exact size
	for i := range pl.keys {
		if pl.keys[i].share(r) > 0 {
			n++
		}
	}
	out := make([]task.Fetch, 0, n)
	for i := range pl.keys {
		k := &pl.keys[i]
		if b := k.share(r); b > 0 {
			out = append(out, task.Fetch{From: k.machine, Bytes: b, FromMem: k.inMem, Stage: k.stage})
		}
	}
	return out, nil
}

// share is reducer r's total for the key.
func (k *planKey) share(r int) int64 {
	above := len(k.rems) - sort.Search(len(k.rems), func(i int) bool { return k.rems[i] > int64(r) })
	return k.base + int64(above)
}

// planFor returns a current plan over parentIDs for numReducers, rebuilding
// a stale one in place. Plans live with their first parent's record.
func (tr *Tracker) planFor(parentIDs []int, numReducers int, recs []*stageOutputs) *fetchPlan {
	first := recs[0]
	var pl *fetchPlan
	for _, p := range first.plans {
		if p.reducers == numReducers && slices.Equal(p.parents, parentIDs) {
			pl = p
			break
		}
	}
	if pl != nil {
		current := true
		for i, s := range recs {
			if pl.gens[i] != s.gen {
				current = false
				break
			}
		}
		if current {
			return pl
		}
	} else {
		if n := len(tr.freePlans); n > 0 {
			pl = tr.freePlans[n-1]
			tr.freePlans = tr.freePlans[:n-1]
		} else {
			pl = &fetchPlan{}
		}
		pl.parents = append(pl.parents[:0], parentIDs...)
		pl.reducers = numReducers
		first.plans = append(first.plans, pl)
	}
	tr.build(pl, recs)
	return pl
}

// build fills pl from the parents' current registrations. Outputs are
// binned into dense (machine, parent, in-memory) slots with parents ranked
// by stage ID, so slot order is the fetch order (machine, then stage, then
// disk before memory): no map and no key sort, and only each key's
// remainders are sorted.
func (tr *Tracker) build(pl *fetchPlan, recs []*stageOutputs) {
	pl.gens = pl.gens[:0]
	for _, s := range recs {
		pl.gens = append(pl.gens, s.gen)
	}
	ids := append(tr.idScratch[:0], pl.parents...)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	tr.idScratch = ids
	rank := tr.rankScratch[:0]
	for _, pid := range pl.parents {
		rk, _ := slices.BinarySearch(ids, pid)
		rank = append(rank, rk)
	}
	tr.rankScratch = rank
	machines := 0
	for _, s := range recs {
		for _, m := range s.tasks {
			if m.registered && m.machine >= machines {
				machines = m.machine + 1
			}
		}
	}
	slotOf := func(m mapStatus, parent int) int {
		i := (m.machine*len(ids) + rank[parent]) * 2
		if m.inMem {
			i++
		}
		return i
	}
	n := machines * len(ids) * 2
	slots := slices.Grow(tr.slotScratch[:0], n)[:n]
	clear(slots)
	tr.slotScratch = slots
	R := int64(pl.reducers)
	for i, s := range recs {
		for _, m := range s.tasks {
			if m.registered {
				a := &slots[slotOf(m, i)]
				a.base += m.bytes / R
				if m.bytes%R != 0 {
					a.n++
				}
			}
		}
	}
	total := 0
	for i := range slots {
		slots[i].off, total = total, total+slots[i].n
		slots[i].n = 0
	}
	pl.rems = slices.Grow(pl.rems[:0], total)[:total]
	for i, s := range recs {
		for _, m := range s.tasks {
			if m.registered && m.bytes%R != 0 {
				a := &slots[slotOf(m, i)]
				pl.rems[a.off+a.n] = m.bytes % R
				a.n++
			}
		}
	}
	pl.keys = pl.keys[:0]
	for i, a := range slots {
		if a.base == 0 && a.n == 0 {
			continue // no reducer gets a byte
		}
		rems := pl.rems[a.off : a.off+a.n]
		slices.Sort(rems)
		k := fetchKey{machine: i / 2 / len(ids), stage: ids[i/2%len(ids)], inMem: i%2 == 1}
		pl.keys = append(pl.keys, planKey{fetchKey: k, base: a.base, rems: rems})
	}
}

// Clear drops a stage's outputs (a completed job's shuffle files being
// cleaned up). Plans over it become stale: their first parent's record is
// gone, or the stage's next registration gets a stamp they never saw.
func (tr *Tracker) Clear(stageID int) {
	s := tr.byStage[stageID]
	if s == nil {
		return
	}
	delete(tr.byStage, stageID)
	tr.freePlans = append(tr.freePlans, s.plans...)
	clear(s.plans)
	s.plans = s.plans[:0]
	s.tasks = s.tasks[:0]
	tr.freeStages = append(tr.freeStages, s)
}
