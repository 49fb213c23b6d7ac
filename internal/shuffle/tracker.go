// Package shuffle tracks map outputs between stages, playing the role of
// Spark's MapOutputTracker: when a stage finishes, each of its tasks has
// registered where it ran and how much shuffle data it produced; reduce
// tasks in child stages then plan fetches against those locations.
package shuffle

import (
	"fmt"
	"sort"

	"repro/internal/task"
)

// mapStatus is one map task's registered output.
type mapStatus struct {
	taskIdx int
	machine int
	bytes   int64
	inMem   bool
}

// fetchKey aggregates fetch bytes per (machine, parent stage, in-memory).
type fetchKey struct {
	machine int
	stage   int
	inMem   bool
}

// Tracker records map outputs per stage, keyed by task index so that a
// re-executed task replaces its earlier registration (fault recovery) and a
// machine's outputs can be invalidated when it fails.
type Tracker struct {
	byStage map[int]map[int]mapStatus
	// Scratch reused across FetchesFor calls (the tracker, like the engine
	// it serves, is single-threaded): resolving every reduce task of a wide
	// stage would otherwise allocate a map and a key slice per task.
	aggScratch map[fetchKey]int64
	keyScratch []fetchKey
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{byStage: make(map[int]map[int]mapStatus)}
}

// RegisterMapOutput records that task taskIdx of the given stage ran on
// machine and produced shuffleBytes of output (inMem if the stage keeps
// shuffle data in memory). Re-registering an index overwrites the earlier
// entry.
func (tr *Tracker) RegisterMapOutput(stageID, taskIdx, machine int, shuffleBytes int64, inMem bool) {
	m := tr.byStage[stageID]
	if m == nil {
		m = make(map[int]mapStatus)
		tr.byStage[stageID] = m
	}
	m[taskIdx] = mapStatus{taskIdx: taskIdx, machine: machine, bytes: shuffleBytes, inMem: inMem}
}

// RemoveMachine drops every registration the stage holds on the given
// machine (the machine failed, its shuffle files are gone) and returns the
// affected task indices, which must be re-executed.
func (tr *Tracker) RemoveMachine(stageID, machine int) []int {
	var lost []int
	for idx, st := range tr.byStage[stageID] {
		if st.machine == machine {
			lost = append(lost, idx)
			delete(tr.byStage[stageID], idx)
		}
	}
	sort.Ints(lost)
	return lost
}

// StageOutputBytes reports the total registered shuffle output of a stage.
func (tr *Tracker) StageOutputBytes(stageID int) int64 {
	var sum int64
	for _, s := range tr.byStage[stageID] {
		sum += s.bytes
	}
	return sum
}

// FetchesFor plans reducer r of numReducers' fetches over the shuffle
// outputs of the given parent stages. Each map output is split evenly over
// reducers (remainder bytes go to the lowest-indexed reducers, so reducer
// loads differ by at most one byte per map). Fetches are aggregated per
// (machine, in-memory) and returned in deterministic machine order.
func (tr *Tracker) FetchesFor(parentIDs []int, r, numReducers int) ([]task.Fetch, error) {
	if numReducers <= 0 || r < 0 || r >= numReducers {
		return nil, fmt.Errorf("shuffle: reducer %d of %d out of range", r, numReducers)
	}
	if tr.aggScratch == nil {
		tr.aggScratch = make(map[fetchKey]int64)
	}
	agg := tr.aggScratch
	for k := range agg {
		delete(agg, k)
	}
	for _, pid := range parentIDs {
		statuses, ok := tr.byStage[pid]
		if !ok {
			return nil, fmt.Errorf("shuffle: stage %d has no registered map output", pid)
		}
		for _, st := range statuses {
			per := st.bytes / int64(numReducers)
			if int64(r) < st.bytes%int64(numReducers) {
				per++
			}
			if per == 0 {
				continue
			}
			agg[fetchKey{st.machine, pid, st.inMem}] += per
		}
	}
	keys := tr.keyScratch[:0]
	for k := range agg {
		keys = append(keys, k)
	}
	// Insertion sort: the key count is bounded by machines × parent stages
	// (a handful), and unlike sort.Slice this allocates nothing.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	tr.keyScratch = keys
	out := make([]task.Fetch, 0, len(keys))
	for _, k := range keys {
		out = append(out, task.Fetch{From: k.machine, Bytes: agg[k], FromMem: k.inMem, Stage: k.stage})
	}
	return out, nil
}

// keyLess orders fetch keys by machine, then parent stage, then disk before
// memory.
func keyLess(a, b fetchKey) bool {
	if a.machine != b.machine {
		return a.machine < b.machine
	}
	if a.stage != b.stage {
		return a.stage < b.stage
	}
	return !a.inMem && b.inMem
}

// Clear drops a stage's outputs (a completed job's shuffle files being
// cleaned up).
func (tr *Tracker) Clear(stageID int) {
	delete(tr.byStage, stageID)
}
