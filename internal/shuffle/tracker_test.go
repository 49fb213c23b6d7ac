package shuffle

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/task"
)

func TestFetchesEvenSplit(t *testing.T) {
	tr := NewTracker()
	// Two maps on machines 0 and 1, 100 bytes each, 4 reducers.
	tr.RegisterMapOutput(0, 0, 0, 100, false)
	tr.RegisterMapOutput(0, 1, 1, 100, false)
	f, err := tr.FetchesFor([]int{0}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 {
		t.Fatalf("got %d fetches, want 2", len(f))
	}
	if f[0].From != 0 || f[1].From != 1 {
		t.Fatalf("fetch sources %d, %d; want 0, 1 (sorted)", f[0].From, f[1].From)
	}
	if f[0].Bytes != 25 || f[1].Bytes != 25 {
		t.Fatalf("fetch bytes %d, %d; want 25 each", f[0].Bytes, f[1].Bytes)
	}
}

func TestFetchesAggregatePerMachine(t *testing.T) {
	tr := NewTracker()
	// Three maps all on machine 2.
	for i := 0; i < 3; i++ {
		tr.RegisterMapOutput(0, i, 2, 90, false)
	}
	f, _ := tr.FetchesFor([]int{0}, 1, 3)
	if len(f) != 1 {
		t.Fatalf("got %d fetches, want 1 (aggregated)", len(f))
	}
	if f[0].Bytes != 90 {
		t.Fatalf("aggregated bytes = %d, want 90", f[0].Bytes)
	}
}

func TestFetchesRemainderGoesToLowReducers(t *testing.T) {
	tr := NewTracker()
	tr.RegisterMapOutput(0, 0, 0, 10, false) // 10 over 3 reducers: 4,3,3
	b := make([]int64, 3)
	for r := 0; r < 3; r++ {
		f, _ := tr.FetchesFor([]int{0}, r, 3)
		if len(f) > 0 {
			b[r] = f[0].Bytes
		}
	}
	if b[0] != 4 || b[1] != 3 || b[2] != 3 {
		t.Fatalf("split = %v, want [4 3 3]", b)
	}
}

func TestFetchesMultipleParents(t *testing.T) {
	tr := NewTracker()
	tr.RegisterMapOutput(0, 0, 0, 100, false)
	tr.RegisterMapOutput(1, 0, 0, 100, true) // in-memory shuffle from another parent
	f, _ := tr.FetchesFor([]int{0, 1}, 0, 1)
	if len(f) != 2 {
		t.Fatalf("got %d fetches, want 2 (disk and mem kept separate)", len(f))
	}
	if f[0].FromMem || !f[1].FromMem {
		t.Fatalf("ordering: disk first then mem, got %+v", f)
	}
	if f[0].Bytes != 100 || f[1].Bytes != 100 {
		t.Fatalf("bytes = %d, %d; want 100 each", f[0].Bytes, f[1].Bytes)
	}
}

func TestFetchesErrors(t *testing.T) {
	tr := NewTracker()
	if _, err := tr.FetchesFor([]int{7}, 0, 1); err == nil {
		t.Error("missing parent stage accepted")
	}
	tr.RegisterMapOutput(0, 0, 0, 10, false)
	if _, err := tr.FetchesFor([]int{0}, 5, 2); err == nil {
		t.Error("out-of-range reducer accepted")
	}
	if _, err := tr.FetchesFor([]int{0}, 0, 0); err == nil {
		t.Error("zero reducers accepted")
	}
}

func TestZeroByteOutputsProduceNoFetches(t *testing.T) {
	tr := NewTracker()
	tr.RegisterMapOutput(0, 0, 0, 0, false)
	f, err := tr.FetchesFor([]int{0}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 0 {
		t.Fatalf("got %d fetches for zero-byte map output, want 0", len(f))
	}
}

func TestStageOutputBytesAndClear(t *testing.T) {
	tr := NewTracker()
	tr.RegisterMapOutput(3, 0, 0, 40, false)
	tr.RegisterMapOutput(3, 1, 1, 60, false)
	if got := tr.StageOutputBytes(3); got != 100 {
		t.Fatalf("StageOutputBytes = %d, want 100", got)
	}
	tr.Clear(3)
	if got := tr.StageOutputBytes(3); got != 0 {
		t.Fatalf("after Clear = %d, want 0", got)
	}
}

// Property: the sum of all reducers' fetch bytes equals the total registered
// map output, for any number of maps, machines, and reducers.
func TestPropertyConservation(t *testing.T) {
	f := func(sizes []uint16, reducersRaw uint8) bool {
		numReducers := int(reducersRaw)%16 + 1
		tr := NewTracker()
		var total int64
		for i, s := range sizes {
			tr.RegisterMapOutput(0, i, i%5, int64(s), i%2 == 0)
			total += int64(s)
		}
		if len(sizes) == 0 {
			return true
		}
		var got int64
		for r := 0; r < numReducers; r++ {
			fs, err := tr.FetchesFor([]int{0}, r, numReducers)
			if err != nil {
				return false
			}
			for _, fe := range fs {
				got += fe.Bytes
			}
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// shadowOutput and shadowTracker model the tracker's registrations
// independently of how the tracker stores them: stage → task → output.
type shadowOutput struct {
	machine int
	bytes   int64
	inMem   bool
}

type shadowTracker map[int]map[int]shadowOutput

// referenceFetches is the tracker's original per-reducer aggregation loop,
// kept as the oracle for fetch plans: for each parent's map output it adds
// reducer r's share (⌊b/R⌋, plus one byte while r < b mod R) to a
// (machine, stage, in-memory) key, then emits the nonzero keys in keyLess
// order.
func referenceFetches(sh shadowTracker, parentIDs []int, r, numReducers int) ([]task.Fetch, error) {
	if numReducers <= 0 || r < 0 || r >= numReducers {
		return nil, fmt.Errorf("shuffle: reducer %d of %d out of range", r, numReducers)
	}
	agg := make(map[fetchKey]int64)
	for _, pid := range parentIDs {
		statuses, ok := sh[pid]
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
	keys := make([]fetchKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
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

// TestFetchPlansMatchReference drives a tracker and a shadow model through
// the same seeded mix of registrations, re-registrations, machine losses
// and clears, and after every change compares reducer reads for several
// reduce shapes — one to four parents, 1 to 1,280 reducers — with the
// reference loop. A plan served after any of its parents changed shows up
// as a mismatch.
func TestFetchPlansMatchReference(t *testing.T) {
	type shape struct {
		parents  []int
		reducers int
	}
	shapes := []shape{
		{[]int{0}, 1}, {[]int{0}, 3}, {[]int{0}, 1280},
		{[]int{1}, 7}, {[]int{1}, 64},
		{[]int{2, 0}, 5}, {[]int{0, 2}, 5}, {[]int{3, 1, 2}, 1280},
		{[]int{0, 1, 2, 3}, 32}, {[]int{2, 2}, 4}, {[]int{}, 3},
	}
	const machines = 6
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker()
		sh := shadowTracker{}
		bytes := func() int64 {
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return int64(rng.Intn(40)) // below most reducer counts
			case 2:
				return int64(rng.Intn(5000))
			default:
				return int64(1e6 + rng.Intn(1e6))
			}
		}
		check := func(step int, all bool) {
			t.Helper()
			for _, s := range shapes {
				reducers := []int{0, s.reducers - 1, rng.Intn(s.reducers), rng.Intn(s.reducers)}
				if all {
					reducers = reducers[:0]
					for r := 0; r < s.reducers; r++ {
						reducers = append(reducers, r)
					}
				}
				for _, r := range reducers {
					got, gotErr := tr.FetchesFor(s.parents, r, s.reducers)
					want, wantErr := referenceFetches(sh, s.parents, r, s.reducers)
					if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("seed %d step %d parents %v r %d/%d: error %v, reference %v", seed, step, s.parents, r, s.reducers, gotErr, wantErr)
					}
					if !sameFetches(got, want) {
						t.Fatalf("seed %d step %d parents %v r %d/%d:\n got %+v\nwant %+v", seed, step, s.parents, r, s.reducers, got, want)
					}
				}
			}
			for pid := 0; pid < 4; pid++ {
				var want int64
				for _, o := range sh[pid] {
					want += o.bytes
				}
				if got := tr.StageOutputBytes(pid); got != want {
					t.Fatalf("seed %d step %d: StageOutputBytes(%d) = %d, want %d", seed, step, pid, got, want)
				}
			}
		}
		for step := 0; step < 400; step++ {
			pid := rng.Intn(4)
			switch op := rng.Intn(20); {
			case op < 14: // register, or re-register an index
				ti := rng.Intn(48)
				o := shadowOutput{machine: rng.Intn(machines), bytes: bytes(), inMem: pid == 1 || (pid == 3 && rng.Intn(2) == 0)}
				tr.RegisterMapOutput(pid, ti, o.machine, o.bytes, o.inMem)
				if sh[pid] == nil {
					sh[pid] = map[int]shadowOutput{}
				}
				sh[pid][ti] = o
			case op < 18:
				m := rng.Intn(machines)
				var want []int
				for ti, o := range sh[pid] {
					if o.machine == m {
						want = append(want, ti)
						delete(sh[pid], ti)
					}
				}
				sort.Ints(want)
				if got := tr.RemoveMachine(pid, m); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: RemoveMachine(%d, %d) lost %v, want %v", seed, step, pid, m, got, want)
				}
			default:
				tr.Clear(pid)
				delete(sh, pid)
			}
			check(step, step%100 == 99)
		}
	}
}

// sameFetches compares two fetch lists element by element.
func sameFetches(a, b []task.Fetch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
