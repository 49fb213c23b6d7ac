package perf

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSubmitSustains100kJobs is the submission-scale gate: one driver
// absorbs 100k concurrent job submissions (none complete — zero-capacity
// executors — so all 100k are live at once) and the per-submit allocation
// cost stays at BENCH_7's DriverSubmit (13 allocs/op; the bound leaves slack
// for mallocs the benchmark's amortized accounting rounds away).
func TestSubmitSustains100kJobs(t *testing.T) {
	d, spec := submitDriver(t)
	// Warm the template cache and the admission structures off the books.
	if _, err := d.Submit(spec); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const jobs = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		if _, err := d.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / jobs
	if per > 16 {
		t.Fatalf("submit cost %.1f allocs/op with 100k concurrent jobs, want ≤16 (BENCH_7 baseline 13)", per)
	}
}
