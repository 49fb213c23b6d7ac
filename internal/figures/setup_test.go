package figures

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/run"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/monospark"
)

// TestTelemetryReachesEveryRun: a Setup's telemetry sink receives one
// sampler per simulated run, including the runs that build their own
// driver wiring (the failure matrix, the multi-job streams and the phase
// round-robin cells).
func TestTelemetryReachesEveryRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int64
		run  func(Setup) error
	}{
		{"failure", 24, func(s Setup) error { _, err := Failure(bg, s); return err }},
		{"multijob", 7, func(s Setup) error { _, err := Multijob(bg, s, true); return err }},
		{"phase-rr", 2, func(s Setup) error { _, err := AblationPhaseRR(bg, s); return err }},
	} {
		var n atomic.Int64
		setup := Setup{Workers: 4, Telemetry: func(s *telemetry.Sampler) {
			if len(s.Snapshots()) == 0 {
				t.Errorf("%s: sampler captured no snapshots", tc.name)
			}
			n.Add(1)
		}}
		if err := tc.run(setup); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := n.Load(); got != tc.want {
			t.Errorf("%s: sink received %d samplers, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCancelledContextStopsEveryCell: each per-cell runner honours its
// context, so a cancelled experiment aborts cells already simulating
// instead of draining them.
func TestCancelledContextStopsEveryCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	setup := Setup{Workers: 1}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"execute", func() error {
			_, err := execute(ctx, setup, 2, cluster.M2_4XLarge(), run.Options{Mode: run.Monotasks},
				workloads.Sort{TotalBytes: units.GB, ValuesPerKey: 10}.Build)
			return err
		}},
		{"failureRun", func() error {
			_, _, err := failureRun(ctx, setup, run.Spark, 2, false, 10)
			return err
		}},
		{"runMultijob", func() error {
			_, err := runMultijob(ctx, setup, run.Options{Mode: run.Monotasks}, workloads.MultiJob{
				Name: "cancelled", Jobs: 2, MeanInterarrival: 5, Seed: 7,
				JobBytes: units.GB, MapTasks: 8, ReduceTasks: 4,
			})
			return err
		}},
		{"phaseRRCell", func() error {
			_, err := phaseRRCell(ctx, setup, true)
			return err
		}},
		{"chaosRun", func() error {
			_, err := chaosRun(ctx, setup, 1, monospark.Monotasks)
			return err
		}},
	} {
		if err := tc.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: got %v, want an error matching context.Canceled", tc.name, err)
		}
	}
}

// TestChaosVerify: the verdict check passes only when every seed is both
// correct and reproducible, and names each seed that is not.
func TestChaosVerify(t *testing.T) {
	ok := &ChaosResult{Rows: []ChaosRow{
		{Seed: 1, Correct: true, Reproducible: true},
		{Seed: 2, Correct: true, Reproducible: true},
	}}
	if err := ok.Verify(); err != nil {
		t.Fatalf("all-good verdicts failed: %v", err)
	}
	bad := &ChaosResult{Rows: []ChaosRow{
		{Seed: 1, Correct: true, Reproducible: true},
		{Seed: 2, Correct: false, Reproducible: true},
		{Seed: 3, Correct: true, Reproducible: true},
		{Seed: 4, Correct: true, Reproducible: false},
	}}
	err := bad.Verify()
	if err == nil {
		t.Fatal("false verdicts passed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "2 (correct=false") || !strings.Contains(msg, "4 (correct=true reproducible=false)") {
		t.Fatalf("verdict error %q should name seeds 2 and 4", msg)
	}
	if strings.Contains(msg, "1 (") || strings.Contains(msg, "3 (") {
		t.Fatalf("verdict error %q names a passing seed", msg)
	}
}

// TestMemoryVerify: the memory verdict passes only when the sweep saw the
// bottleneck migrate to memory.
func TestMemoryVerify(t *testing.T) {
	ok := &MemoryResult{Rows: make([]MemoryRow, 2), MigratedAt: 64}
	if err := ok.Verify(); err != nil {
		t.Fatalf("migrating sweep failed: %v", err)
	}
	bad := &MemoryResult{Rows: make([]MemoryRow, 2)}
	err := bad.Verify()
	if err == nil {
		t.Fatal("sweep without a migration passed")
	}
	if !strings.Contains(err.Error(), "never migrated") {
		t.Fatalf("verdict error %q should say the bottleneck never migrated", err)
	}
}

// TestFailureVerify: the failure verdict passes only when all 16 cells are
// present, every replication-1 cell aborts on lost input, and every
// replicated cell completes slower than clean by at most 200%; it names each
// cell that does not.
func TestFailureVerify(t *testing.T) {
	const lostInput = `aborted: jobsched: job "sort-25v": resolving task 4 of stage "sort-25v/map": every replica of block 4 of "/sort/sort-25v" is on a failed machine (replication too low for this failure)`
	ok := func() *FailureResult {
		r := &FailureResult{}
		for _, system := range []string{"spark", "monospark"} {
			for _, replication := range []int{1, 2} {
				for _, speculation := range []bool{false, true} {
					for _, phase := range []string{"map", "reduce"} {
						row := FailureRow{System: system, Phase: phase, Replication: replication,
							Speculation: speculation, Clean: 64, WithFailure: 33.5, Outcome: lostInput}
						if replication == 2 {
							// The top of the allowed range: exactly 200% overhead.
							row.WithFailure, row.Outcome = 192, "completed"
						}
						r.Rows = append(r.Rows, row)
					}
				}
			}
		}
		return r
	}
	if err := ok().Verify(); err != nil {
		t.Fatalf("passing matrix failed: %v", err)
	}
	// Rows 0-3 are spark's replication-1 cells, rows 4-7 its replicated ones.
	for name, c := range map[string]struct {
		edit func(*FailureResult)
		want string
	}{
		"missing cell":      {func(r *FailureResult) { r.Rows = r.Rows[1:] }, "15 cells, want 16"},
		"repl-1 completes":  {func(r *FailureResult) { r.Rows[1].Outcome = "completed" }, `spark reduce repl=1 spec=false: want an abort on lost input, got "completed"`},
		"repl-1 other":      {func(r *FailureResult) { r.Rows[2].Outcome = "aborted: context deadline exceeded" }, "spark map repl=1 spec=true: want an abort on lost input"},
		"repl-2 aborts":     {func(r *FailureResult) { r.Rows[5].Outcome = lostInput }, "spark reduce repl=2 spec=false: want completed"},
		"not slower":        {func(r *FailureResult) { r.Rows[6].WithFailure = 64 }, "spark map repl=2 spec=true: failure run (64.0 s) not slower than clean (64.0 s)"},
		"overhead too high": {func(r *FailureResult) { r.Rows[7].WithFailure = 193 }, "spark reduce repl=2 spec=true: overhead 202% above 200%"},
	} {
		r := ok()
		c.edit(r)
		err := r.Verify()
		if err == nil {
			t.Fatalf("%s: verdict passed", name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: verdict error %q should contain %q", name, err, c.want)
		}
		if strings.Count(err.Error(), "repl=") > 1 {
			t.Fatalf("%s: verdict error %q names a passing cell", name, err)
		}
	}
}

// TestMultijobVerify: the multijob verdict fails on an unfinished batch job,
// a pool share more than 0.05 from its weight share, or a mono attribution
// error above 0.05% at p75, and passes the shares the experiment measures.
func TestMultijobVerify(t *testing.T) {
	ok := func() *MultijobResult {
		return &MultijobResult{
			BatchJobs: 8, BatchFinished: 8,
			Shares: []MultijobPoolShare{
				{Pool: "prod", Weight: 3, WantShare: 0.75, GotShare: 0.73},
				{Pool: "adhoc", Weight: 1, WantShare: 0.25, GotShare: 0.27},
			},
			MonoErrors: []float64{0, 0, 1e-5, 2e-5},
		}
	}
	if err := ok().Verify(); err != nil {
		t.Fatalf("passing result failed: %v", err)
	}
	for name, c := range map[string]struct {
		edit func(*MultijobResult)
		want string
	}{
		"unfinished":  {func(r *MultijobResult) { r.BatchFinished = 7 }, "7 of 8 batch jobs finished"},
		"share":       {func(r *MultijobResult) { r.Shares[0].GotShare, r.Shares[1].GotShare = 0.69, 0.31 }, "pool prod got share 0.69"},
		"attribution": {func(r *MultijobResult) { r.MonoErrors = []float64{0, 0.001, 0.001, 0.001} }, "mono attribution error p75"},
	} {
		r := ok()
		c.edit(r)
		err := r.Verify()
		if err == nil {
			t.Fatalf("%s: verdict passed", name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: verdict error %q should contain %q", name, err, c.want)
		}
	}
}
