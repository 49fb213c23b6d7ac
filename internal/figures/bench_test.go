package figures

import (
	"context"
	"runtime"
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
// sort measures 9,727 allocations (9,729 under the race detector); the bound
// is the 9,796 it measured when the bound was set plus 10%.
const maxSortAllocs = 10_775

// TestSortEndToEndAllocs is the allocation guard on the end-to-end sort.
// A deterministic simulation allocates the same amount on any host, so the
// count gates cleanly where host time would not.
func TestSortEndToEndAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(3, func() { sortEndToEnd(t) }); got > maxSortAllocs {
		t.Fatalf("end-to-end sort allocates %.0f times per run, want ≤ %d", got, maxSortAllocs)
	}
}

// maxSortBytes bounds the heap bytes of one end-to-end sort. The sort
// measures 1,502,122 bytes (1,503,264 under the race detector); the bound is
// that plus 1%. It is tighter than the allocation count's 10% because one
// 8-byte field added to MonotaskMetric grows the sort by only 1.3%
// (1,555,520 bytes when the sort took 1,535,090), and one added to
// TaskMetrics by 1.1% (1,551,658). A core monotask node that copied its
// stage template's demand, 176 bytes instead of 96, took 1,535,274.
const maxSortBytes = 1_517_000

// TestSortEndToEndBytes is TestSortEndToEndAllocs for bytes: the guard on
// the size of the per-monotask and per-task metric records, which the
// allocation count cannot see. Like testing.AllocsPerRun, it warms up once
// and measures at GOMAXPROCS 1.
func TestSortEndToEndBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sortEndToEnd(t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	const runs = 3
	for i := 0; i < runs; i++ {
		sortEndToEnd(t)
	}
	runtime.ReadMemStats(&ms)
	if got := (ms.TotalAlloc - before) / runs; got > maxSortBytes {
		t.Fatalf("end-to-end sort allocates %d bytes per run, want ≤ %d", got, maxSortBytes)
	}
}
