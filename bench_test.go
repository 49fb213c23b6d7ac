// Benchmarks that regenerate every table and figure in the paper's
// evaluation (§5–§7). Each benchmark runs the corresponding experiment on
// the virtual cluster and reports the figure's headline quantities as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The same experiments are available
// interactively via cmd/monobench.
package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/figures"
)

// Every benchmark runs its experiment's grid on all CPUs, as monobench does
// by default.
var (
	bg      = context.Background()
	allCPUs = figures.Setup{Workers: runtime.NumCPU()}
)

// BenchmarkFig02 regenerates the Fig. 2 utilization oscillation trace.
func BenchmarkFig02(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig02(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Oscillates() {
			b.Fatal("Fig. 2 bottleneck did not oscillate between CPU and disk")
		}
	}
}

// BenchmarkSort600GB regenerates the §5.2 sort comparison (paper: Spark
// 88 min vs MonoSpark 57 min = 1.54× speedup).
func BenchmarkSort600GB(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Sort600GB(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup()
		if speedup <= 1 {
			b.Fatalf("MonoSpark speedup %.2f ≤ 1 on the sort workload", speedup)
		}
	}
	b.ReportMetric(speedup, "mono-speedup")
}

// BenchmarkFig05 regenerates the big data benchmark comparison (paper:
// MonoSpark within −21%…+5% of Spark except q1c at +55%).
func BenchmarkFig05(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig05(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.Rows {
			if v := row.MonoVsSpark(); v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "worst-mono/spark")
}

// BenchmarkFig06 regenerates the stage-utilization box plots (same runs as
// Fig. 5, different view).
func BenchmarkFig06(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig05(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Util) == 0 {
			b.Fatal("no utilization summaries")
		}
	}
}

// BenchmarkFig07 regenerates the per-stage ML workload comparison (paper:
// MonoSpark on par with Spark).
func BenchmarkFig07(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig07(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = r.MaxRatio()
	}
	b.ReportMetric(worst, "worst-mono/spark")
}

// BenchmarkFig08 regenerates the task-count sensitivity sweep (paper:
// MonoSpark slower at one wave, on par by three).
func BenchmarkFig08(b *testing.B) {
	var oneWave, manyWaves float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig08(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		oneWave = float64(first.Mono) / float64(first.Spark)
		manyWaves = float64(last.Mono) / float64(last.Spark)
	}
	b.ReportMetric(oneWave, "mono/spark-1wave")
	b.ReportMetric(manyWaves, "mono/spark-12waves")
}

// BenchmarkFig09 regenerates the q2c map-stage utilization comparison
// (paper: MonoSpark keeps the CPU > 92% utilized, Spark 75–83%).
func BenchmarkFig09(b *testing.B) {
	var mono, spark float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig09(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		mono, spark = r.MonoCPU, r.SparkCPU
	}
	b.ReportMetric(mono, "mono-cpu-util")
	b.ReportMetric(spark, "spark-cpu-util")
}

// BenchmarkFig11 regenerates the 2×-SSD prediction (paper: ≤9% error).
func BenchmarkFig11(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig11(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = r.MaxAbsErrPct()
	}
	b.ReportMetric(worst, "max-err-pct")
}

// BenchmarkFig12 regenerates the disk-removal predictions with the
// monotasks model (paper: ≤9% error except q3c at 28%).
func BenchmarkFig12(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig12(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.Rows {
			e := pctAbs(row.MonoPredicted, row.MonoActual)
			if e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "max-err-pct")
}

// BenchmarkSec63 regenerates the in-memory-input prediction (§6.3, paper:
// 4% error).
func BenchmarkSec63(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Sec63(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = r.MaxAbsErrPct()
	}
	b.ReportMetric(worst, "max-err-pct")
}

// BenchmarkFig13 regenerates the combined hardware+software migration
// prediction (paper: ~10× change predicted within 23%).
func BenchmarkFig13(b *testing.B) {
	var worst, change float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig13(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = r.MaxAbsErrPct()
		change = r.Rows[0].Baseline / r.Rows[0].Actual
	}
	b.ReportMetric(worst, "max-err-pct")
	b.ReportMetric(change, "runtime-change-x")
}

// BenchmarkFig14 regenerates the bottleneck analysis (paper: CPU is the
// bottleneck for most queries; network optimizations have little effect).
func BenchmarkFig14(b *testing.B) {
	var cpuBound float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig14(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, row := range r.Rows {
			if row.Bottleneck.String() == "cpu" {
				n++
			}
			// Removing a resource never lengthens a stage's model time.
			for _, frac := range []float64{row.NoDiskFrac, row.NoNetFrac, row.NoCPUFrac} {
				if frac > 1 {
					b.Fatalf("q%s: removing a resource predicted %v > 1: %+v", row.Query, frac, row)
				}
			}
			if row.NoNetFrac < 0.99 {
				b.Fatalf("q%s: network removal predicted %v; paper finds network irrelevant", row.Query, row.NoNetFrac)
			}
		}
		cpuBound = float64(n) / float64(len(r.Rows))
	}
	b.ReportMetric(cpuBound, "cpu-bound-frac")
}

// BenchmarkFig15 regenerates the slot-model strawman (paper: badly wrong).
func BenchmarkFig15(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig12(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.Rows {
			e := pctAbs(row.SlotPredicted, row.SparkActual)
			if e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "max-err-pct")
}

// BenchmarkFig16 regenerates the concurrent-job attribution comparison
// (paper: Spark 17% median / 68% p75 error; MonoSpark < 1%).
func BenchmarkFig16(b *testing.B) {
	var sparkMed, monoMed float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig16(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		sparkMed, _ = figures.MedianAndP75(r.SparkErrors)
		monoMed, _ = figures.MedianAndP75(r.MonoErrors)
		if monoMed >= sparkMed {
			b.Fatalf("mono attribution error %.1f%% ≥ spark %.1f%%", monoMed, sparkMed)
		}
	}
	b.ReportMetric(sparkMed, "spark-median-err-pct")
	b.ReportMetric(monoMed, "mono-median-err-pct")
}

// BenchmarkFig17 regenerates the measured-utilization Spark model (paper:
// 20–30% error for most queries).
func BenchmarkFig17(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig12(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.Rows {
			e := pctAbs(row.UtilPredicted, row.SparkActual)
			if e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "max-err-pct")
}

// BenchmarkFig18 regenerates the auto-configuration sweep (paper: MonoSpark
// at least matches the best Spark slot configuration, up to 30% better).
func BenchmarkFig18(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig18(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.Rows {
			ratio := float64(row.Mono) / float64(row.BestSpark)
			if ratio > worst {
				worst = ratio
			}
		}
	}
	b.ReportMetric(worst, "worst-mono/best-spark")
}

func pctAbs(predicted, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	e := (predicted - actual) / actual * 100
	if e < 0 {
		e = -e
	}
	return e
}

// BenchmarkAblations regenerates the design-choice ablations and asserts
// their directions: round-robin queues beat FIFO under a write backlog, SSD
// throughput rises to the concurrency knee, and load-aware writes beat
// round robin on mixed drives (§3.3, §3.4, §8).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rr, err := figures.AblationPhaseRR(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		if rr.Rows[1].Seconds <= rr.Rows[0].Seconds {
			b.Fatalf("FIFO (%v) did not starve reads vs round robin (%v)",
				rr.Rows[1].Seconds, rr.Rows[0].Seconds)
		}
		ssd, err := figures.AblationSSDConcurrency(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		if !(ssd.Rows[0].Seconds > ssd.Rows[1].Seconds && ssd.Rows[1].Seconds > ssd.Rows[2].Seconds) {
			b.Fatal("SSD throughput did not rise toward the concurrency knee")
		}
		law, err := figures.AblationLoadAwareWrites(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		if law.Rows[1].Seconds >= law.Rows[0].Seconds {
			b.Fatal("shortest-queue writes did not beat round robin on mixed drives")
		}
		net, err := figures.AblationNetLimit(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		if net.Rows[4].Seconds <= net.Rows[2].Seconds {
			b.Fatal("over-admitting multitasks should hurt (§3.3 trade-off)")
		}
		if _, err := figures.AblationSpareMultitask(bg, allCPUs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailure regenerates the fault-tolerance extension: a worker
// fail-stops mid-map or mid-reduce, replicated-input runs recover via task
// re-execution and shuffle regeneration, and unreplicated-input runs abort
// on the lost input block. The verdict checks every cell; the reported
// metric is MonoSpark's overhead from a reduce-phase failure over
// replicated input, speculation off.
func BenchmarkFailure(b *testing.B) {
	overhead := -1.0
	for i := 0; i < b.N; i++ {
		r, err := figures.Failure(bg, allCPUs)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.System == "monospark" && row.Phase == "reduce" && row.Replication == 2 && !row.Speculation {
				overhead = row.Overhead()
			}
		}
	}
	if overhead < 0 {
		b.Fatal("no monospark reduce-phase replication-2 cell with speculation off")
	}
	b.ReportMetric(overhead*100, "mono-overhead-pct")
}
