package figures

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/monospark"
)

// ChaosResult is the chaos harness run as an experiment: for each seed, a
// real-data sort executes under a randomly drawn fault plan (crash +
// recovery, straggler, transient disk errors, flaky fetches, task kills).
// Each seed runs twice; the rows record that the outcome is bit-identical
// across the two runs (determinism), and that the job either completed with
// correct, fully sorted output or aborted with a descriptive error — never
// hung or panicked.
type ChaosResult struct {
	Rows []ChaosRow
}

// ChaosRow is one seed's verdict.
type ChaosRow struct {
	Seed         int64
	Mode         string
	Outcome      string // "completed" or the abort reason (truncated)
	Duration     sim.Duration
	Faults       int  // fault events injected during the run
	Correct      bool // output sorted + records conserved (true when aborted: nothing to check)
	Reproducible bool // second run with the same seed matched bit-for-bit
}

// chaosOutcome is everything one run exposes, folded for comparison.
type chaosOutcome struct {
	completed bool
	errStr    string
	dur       sim.Duration
	faults    int
	hash      uint64
	correct   bool
}

const chaosRecords = 6000

// chaosSetup builds the shared input and expected-key table exactly once per
// process. Every chaos cell used to rebuild both (6000 formatted keys and a
// permutation per cell) — pure per-cell setup cost that the sweep pool paid
// again on every one of its grid cells. The input slice is shared read-only:
// the data plane slices sources into partitions and copies records before
// sorting, never mutating them, and the keys are immutable strings.
var chaosSetup = struct {
	once sync.Once
	recs []any    // shuffled Pair records, the job input
	keys []string // keys[i] = fmt.Sprintf("%08d", i), the sorted expectation
}{}

func chaosInit() {
	rng := rand.New(rand.NewSource(7))
	chaosSetup.keys = make([]string, chaosRecords)
	for i := range chaosSetup.keys {
		chaosSetup.keys[i] = fmt.Sprintf("%08d", i)
	}
	chaosSetup.recs = make([]any, chaosRecords)
	for i, p := range rng.Perm(chaosRecords) {
		chaosSetup.recs[i] = monospark.Pair{Key: chaosSetup.keys[p], Value: 1}
	}
}

// chaosInput is a deterministic shuffled keyspace; sorting it exercises a
// full map + shuffle + reduce with verifiable output. The returned slice is
// shared across cells and must be treated as read-only.
func chaosInput() []any {
	chaosSetup.once.Do(chaosInit)
	return chaosSetup.recs
}

// chaosPlanConfig is the per-seed fault mix the experiment draws from.
func chaosPlanConfig() faults.PlanConfig {
	return faults.PlanConfig{
		Horizon:           40,
		Crashes:           1,
		Stragglers:        1,
		DiskErrorWindows:  1,
		FlakyFetchWindows: 1,
		TaskKills:         1,
	}
}

// chaosRun executes the chaos workload once under the given seed and mode,
// aborting cleanly when ctx is done.
func chaosRun(ctx context.Context, setup Setup, seed int64, mode monospark.Mode) (chaosOutcome, error) {
	cfg := monospark.Config{
		Machines: 4,
		Mode:     mode,
		// Stretch per-record compute so the job spans tens of virtual
		// seconds and overlaps the fault horizon (virtual time is free;
		// wall time scales with event count, not simulated duration).
		CPUCostPerRecord: 0.1,
		Chaos: &monospark.ChaosConfig{
			Seed:              seed,
			Random:            chaosPlanConfig(),
			FetchRetryTimeout: 60,
		},
	}
	if setup.Telemetry != nil {
		cfg.Telemetry = &monospark.TelemetryConfig{}
	}
	sc, err := monospark.New(cfg)
	if err != nil {
		return chaosOutcome{}, err
	}
	if s := sc.Telemetry(); s != nil {
		defer func() {
			s.Stop()
			setup.Telemetry(s)
		}()
	}
	ds, err := sc.Parallelize(chaosInput(), 32)
	if err != nil {
		return chaosOutcome{}, err
	}
	recs, jr, err := ds.SortByKey().CollectContext(ctx)
	if err != nil && ctx.Err() != nil {
		// Cancelled, not a chaos outcome: fail the cell.
		return chaosOutcome{}, err
	}
	out := chaosOutcome{faults: len(sc.FaultEvents())}
	h := fnv.New64a()
	for _, f := range sc.FaultEvents() {
		fmt.Fprintf(h, "%v|", f)
	}
	if err != nil {
		out.errStr = err.Error()
		out.correct = true // nothing to check; the abort itself is the contract
		fmt.Fprintf(h, "err:%s", out.errStr)
		out.hash = h.Sum64()
		return out, nil
	}
	out.completed = true
	out.dur = sim.Duration(jr.Duration().Seconds())
	out.correct = chaosCorrect(recs)
	fmt.Fprintf(h, "dur:%v|n:%d|", out.dur, len(recs))
	// Hand-rolled Pair rendering: %v reflection over 6000 records was a
	// measurable slice of every cell's wall-clock — per-cell harness overhead,
	// like the input construction chaosInit now amortizes. The byte layout
	// matches the Pair "key\tvalue" form; non-Pair or non-int records (none
	// today) keep the reflective path.
	scratch := make([]byte, 0, 32)
	for _, r := range recs {
		if p, ok := r.(monospark.Pair); ok {
			if v, ok := p.Value.(int); ok {
				scratch = append(scratch[:0], p.Key...)
				scratch = append(scratch, '\t')
				scratch = strconv.AppendInt(scratch, int64(v), 10)
				scratch = append(scratch, '|')
				h.Write(scratch)
				continue
			}
		}
		fmt.Fprintf(h, "%v|", r)
	}
	out.hash = h.Sum64()
	return out, nil
}

// chaosCorrect verifies the sort's output: every input record present
// exactly once, in sorted order.
func chaosCorrect(recs []any) bool {
	if len(recs) != chaosRecords {
		return false
	}
	chaosSetup.once.Do(chaosInit)
	prev := ""
	for i, r := range recs {
		p, ok := r.(monospark.Pair)
		if !ok || p.Key < prev {
			return false
		}
		// Keys are the dense range [0, chaosRecords), so sorted order is the
		// identity.
		if p.Key != chaosSetup.keys[i] {
			return false
		}
		prev = p.Key
	}
	return true
}

// Chaos runs `seeds` distinct seeds, each twice, in Monotasks mode. Every
// run — including the replay of a seed — is an independent simulation, so
// all 2×seeds cells go through the sweep pool; the determinism comparison
// happens on the collected outcomes.
func Chaos(ctx context.Context, setup Setup, seeds int) (*ChaosResult, error) {
	outcomes, err := sweep.Run(ctx, setup.Workers, seeds*2, func(i int) (chaosOutcome, error) {
		return chaosRun(ctx, setup, int64(i/2)+1, monospark.Monotasks)
	})
	if err != nil {
		return nil, err
	}
	out := &ChaosResult{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		first, second := outcomes[(seed-1)*2], outcomes[(seed-1)*2+1]
		row := ChaosRow{
			Seed:         seed,
			Mode:         monospark.Monotasks.String(),
			Duration:     first.dur,
			Faults:       first.faults,
			Correct:      first.correct,
			Reproducible: first == second,
		}
		if first.completed {
			row.Outcome = "completed"
		} else {
			row.Outcome = first.errStr
			if len(row.Outcome) > 70 {
				row.Outcome = row.Outcome[:67] + "..."
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Verify fails unless every seed's run was correct and reproducible, naming
// the seeds that were not.
func (r *ChaosResult) Verify() error {
	var bad []string
	for _, row := range r.Rows {
		if !row.Correct || !row.Reproducible {
			bad = append(bad, fmt.Sprintf("%d (correct=%v reproducible=%v)", row.Seed, row.Correct, row.Reproducible))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("chaos: %d of %d seeds failed their verdict: %s", len(bad), len(r.Rows), strings.Join(bad, ", "))
	}
	return nil
}

// Fprint renders the per-seed verdicts.
func (r *ChaosResult) Fprint(w io.Writer) {
	fprintf(w, "Chaos harness: real-data sort under seeded random faults, each seed run twice\n")
	fprintf(w, "%5s %-10s %8s %7s %8s %13s  %s\n",
		"seed", "mode", "dur(s)", "faults", "correct", "reproducible", "outcome")
	for _, row := range r.Rows {
		fprintf(w, "%5d %-10s %8.1f %7d %8v %13v  %s\n",
			row.Seed, row.Mode, float64(row.Duration), row.Faults,
			row.Correct, row.Reproducible, row.Outcome)
	}
}
