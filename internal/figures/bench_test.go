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
// sort measures 8,157 allocations (8,418 to 8,924 under the race detector,
// whose sync.Pool drops retired free lists at random); the bound is the
// 9,796 it measured when the bound was set plus 10%.
const maxSortAllocs = 10_775

// TestSortEndToEndAllocs is the allocation guard on the end-to-end sort.
// A deterministic simulation allocates the same amount on any host, so the
// count gates cleanly where host time would not.
func TestSortEndToEndAllocs(t *testing.T) {
	got := testing.AllocsPerRun(3, func() { sortEndToEnd(t) })
	t.Logf("an end-to-end sort allocates %.0f times", got)
	if got > maxSortAllocs {
		t.Fatalf("end-to-end sort allocates %.0f times per run, want ≤ %d", got, maxSortAllocs)
	}
}

// maxSortBytes bounds the heap bytes of one end-to-end sort. The least of
// 20 sorts measures 1,427,960 bytes (1,428,824 to 1,429,208 under the race
// detector); the bound is the larger reading plus 1%, rounded up to the
// next hundred. It is tighter than the allocation count's 10% because one
// 8-byte field added to MonotaskMetric grows the sort by only 1.3%
// (1,555,520 bytes when the sort took 1,535,090), and one added to
// TaskMetrics by 1.1% (1,551,658). A core monotask node that copied its
// stage template's demand, 176 bytes instead of 96, took 1,535,274.
const maxSortBytes = 1_443_600

// TestSortEndToEndBytes is TestSortEndToEndAllocs for bytes: the guard on
// the size of the per-monotask and per-task metric records, which the
// allocation count cannot see. It warms up once, measures at GOMAXPROCS 1,
// and takes the least of 20 sorts, as TestSessionBytes does: other
// goroutines can only add to the process-wide count, and under the race
// detector sync.Pool drops some of the free lists one sort retires for the
// next.
func TestSortEndToEndBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sort := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		sortEndToEnd(t)
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	sort()
	got := sort()
	for i := 0; i < 19; i++ {
		got = min(got, sort())
	}
	t.Logf("an end-to-end sort allocates %d bytes", got)
	if got > maxSortBytes {
		t.Fatalf("end-to-end sort allocates %d bytes, want ≤ %d", got, maxSortBytes)
	}
}
