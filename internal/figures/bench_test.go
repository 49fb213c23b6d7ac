package figures

import (
	"context"
	"testing"

	"repro/internal/units"
)

// sortEndToEnd is the small two-executor sort BenchmarkSortEndToEnd times
// and TestSortEndToEndAllocs guards: the same SortSized path the golden test
// locks down, on one worker.
func sortEndToEnd(tb testing.TB) {
	if _, err := SortSized(context.Background(), Setup{Workers: 1}, 8*units.GB, 4); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSortEndToEnd measures a full small sort — job build, both
// executors, metrics collection — through the same SortSized path the golden
// test locks down. One worker, so the number reflects single-core
// simulation cost, not pool scheduling.
func BenchmarkSortEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sortEndToEnd(b)
	}
}

// maxSortAllocs bounds the heap allocations of one end-to-end sort. The
// sort measures 9,796 allocations (9,799 under the race detector); the bound
// is that count plus 10%, so a 10% allocation regression fails it.
const maxSortAllocs = 10_775

// TestSortEndToEndAllocs is the allocation guard on the end-to-end sort.
// A deterministic simulation allocates the same amount on any host, so the
// count gates cleanly where host time would not.
func TestSortEndToEndAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(3, func() { sortEndToEnd(t) }); got > maxSortAllocs {
		t.Fatalf("end-to-end sort allocates %.0f times per run, want ≤ %d", got, maxSortAllocs)
	}
}
