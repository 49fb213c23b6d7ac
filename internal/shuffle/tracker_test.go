package shuffle

import (
	"testing"
	"testing/quick"
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
