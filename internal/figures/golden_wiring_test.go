package figures

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/monospark"
)

// wiringOutput renders every experiment path that builds, binds, or drains a
// driver itself rather than through the golden corpus's execute helper: the
// chaos cells (with each seed's outcome hash), the failure matrix, the
// phase round-robin ablation, the multi-job experiment, and a monospark
// async batch under an explicit fault plan in every executor mode. All
// numbers print at %.9f so any drift in the wiring shows byte for byte.
func wiringOutput(t *testing.T, setup Setup) []byte {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer

	cr, err := Chaos(ctx, setup, 8)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "chaos\n")
	for _, row := range cr.Rows {
		o, err := chaosRun(ctx, setup, row.Seed, monospark.Monotasks)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "seed=%d mode=%s dur=%.9f faults=%d correct=%v reproducible=%v hash=%016x outcome=%q\n",
			row.Seed, row.Mode, float64(row.Duration), row.Faults, row.Correct, row.Reproducible, o.hash, row.Outcome)
	}

	fr, err := Failure(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "failure\n")
	for _, row := range fr.Rows {
		fmt.Fprintf(&buf, "%s phase=%s repl=%d spec=%v clean=%.9f failed=%.9f outcome=%q\n",
			row.System, row.Phase, row.Replication, row.Speculation,
			float64(row.Clean), float64(row.WithFailure), row.Outcome)
	}

	rr, err := AblationPhaseRR(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "phase-rr\n")
	for _, row := range rr.Rows {
		fmt.Fprintf(&buf, "%s seconds=%.9f\n", row.Label, row.Seconds)
	}

	mj, err := Multijob(ctx, setup, true)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "multijob solo=%.9f jobs=%d batch=%d finished=%d\n",
		float64(mj.SoloSeconds), mj.JobsPerLoad, mj.BatchJobs, mj.BatchFinished)
	for _, row := range mj.Latency {
		fmt.Fprintf(&buf, "load=%.9f mono=%.9f/%.9f/%.9f spark=%.9f/%.9f/%.9f\n", row.Load,
			float64(row.MonoP50), float64(row.MonoP95), float64(row.MonoP99),
			float64(row.SparkP50), float64(row.SparkP95), float64(row.SparkP99))
	}
	for _, s := range mj.Shares {
		fmt.Fprintf(&buf, "pool=%s weight=%.9f want=%.9f got=%.9f\n", s.Pool, s.Weight, s.WantShare, s.GotShare)
	}
	for _, e := range mj.MonoErrors {
		fmt.Fprintf(&buf, "mono-err=%.9f\n", e)
	}
	for _, e := range mj.SparkErrors {
		fmt.Fprintf(&buf, "spark-err=%.9f\n", e)
	}

	for _, mode := range []monospark.Mode{monospark.Monotasks, monospark.Spark, monospark.SparkWithFlushedWrites} {
		asyncBatchOutput(t, &buf, mode)
	}
	return buf.Bytes()
}

// wiringPlan is an explicit fault schedule that lands inside the async
// batch: a crash with a later recovery, a straggler, a task kill, both
// probability windows, and a second crash still in effect when the
// follow-up job's driver is bound.
func wiringPlan() *monospark.FaultPlan {
	return &monospark.FaultPlan{Events: []monospark.FaultEvent{
		{At: 1.75, Kind: monospark.FaultMachineSlowdown, Machine: 2, Factor: 0.5, Duration: 12.5},
		{At: 2.5, Kind: monospark.FaultDiskErrorWindow, Machine: 0, Prob: 0.3, Duration: 60, Reason: "wiring disk error"},
		{At: 3.25, Kind: monospark.FaultMachineCrash, Machine: 1},
		{At: 6.5, Kind: monospark.FaultTaskKill, Machine: 3, Count: 2, Reason: "wiring kill"},
		{At: 9.75, Kind: monospark.FaultFlakyFetchWindow, Machine: 2, Prob: 0.3, Duration: 90, Reason: "wiring flaky fetch"},
		{At: 21.5, Kind: monospark.FaultMachineRecover, Machine: 1},
		{At: 40.25, Kind: monospark.FaultMachineCrash, Machine: 3},
	}}
}

// asyncBatchOutput runs three concurrent jobs in two pools on one Context
// under wiringPlan, then one more job on the same Context, and renders each
// job's outcome and the fault log.
func asyncBatchOutput(t *testing.T, buf *bytes.Buffer, mode monospark.Mode) {
	t.Helper()
	sc, err := monospark.New(monospark.Config{
		Machines:         4,
		Mode:             mode,
		CPUCostPerRecord: 0.1,
		Pools: []monospark.PoolConfig{
			{Name: "prod", Weight: 3},
			{Name: "adhoc", Weight: 1},
		},
		Chaos: &monospark.ChaosConfig{Seed: 11, Plan: wiringPlan(), FetchRetryTimeout: 60, MaxTaskFailures: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sc.Parallelize(chaosInput(), 32)
	if err != nil {
		t.Fatal(err)
	}
	lastDigit := func(v any) monospark.Pair {
		p := v.(monospark.Pair)
		return monospark.Pair{Key: p.Key[len(p.Key)-1:], Value: 1}
	}
	sum := func(a, b any) any { return a.(int) + b.(int) }
	var actions []*monospark.AsyncAction
	for _, q := range []struct {
		ds   *monospark.Dataset
		pool string
		n    bool
	}{
		{ds.SortByKey(), "prod", false},
		{ds.MapToPair(lastDigit).ReduceByKey(sum), "adhoc", false},
		{ds.Filter(func(v any) bool { return v.(monospark.Pair).Key[7] < '5' }), "prod", true},
	} {
		var a *monospark.AsyncAction
		if q.n {
			a, err = q.ds.CountAsync(monospark.JobOptions{Pool: q.pool})
		} else {
			a, err = q.ds.CollectAsync(monospark.JobOptions{Pool: q.pool})
		}
		if err != nil {
			t.Fatal(err)
		}
		actions = append(actions, a)
	}
	_, awaitErr := sc.AwaitContext(context.Background())
	fmt.Fprintf(buf, "async mode=%s await-err=%v\n", mode, awaitErr != nil)
	for _, a := range actions {
		r, err := a.Run()
		if err != nil {
			fmt.Fprintf(buf, "  %s pool=%s err=%q\n", a.Name, a.Opts.Pool, err.Error())
			continue
		}
		n, _ := a.Count()
		fmt.Fprintf(buf, "  %s pool=%s dur=%.9f records=%d\n", a.Name, a.Opts.Pool, r.Duration().Seconds(), n)
	}
	n, jr, err := ds.Map(func(v any) any { return v }).Count()
	if err != nil {
		fmt.Fprintf(buf, "  follow-up err=%q\n", err.Error())
	} else {
		fmt.Fprintf(buf, "  follow-up dur=%.9f records=%d\n", jr.Duration().Seconds(), n)
	}
	for _, f := range sc.FaultEvents() {
		fmt.Fprintf(buf, "  fault %v\n", f)
	}
}

// TestGoldenWiring pins the experiment paths that wire their own drivers —
// chaos, failure, the phase round-robin ablation, multijob, and monospark's
// async batches — to a committed file, so a change in how a run is wired
// (fault plan installation and binding, cancellation, draining) cannot move
// a simulated byte unnoticed. Regenerate with:
// go test ./internal/figures -run GoldenWiring -update
func TestGoldenWiring(t *testing.T) {
	got := wiringOutput(t, allCPUs())
	golden := filepath.Join("testdata", "golden_wiring.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wiring output drifted from %s at:\n%s\n(if the change is intentional, rerun with -update)",
			golden, firstDiffLine(got, want))
	}
}
