// Command monoperf records the repo's benchmark trajectory: it runs the
// hot-path microbenchmarks (sim event loop, netsim rerate, end-to-end sort)
// and a serial-vs-parallel sweep of the chaos matrix, then writes the numbers
// to a BENCH_*.json report.
//
//	monoperf -out BENCH_9.json                                # full run
//	monoperf -quick -baseline BENCH_7.json -out BENCH_ci.json # CI-sized run
//
// The exit status doubles as three gates: if the parallel sweep's rendered
// output is not byte-identical to the serial run's, or if -baseline names an
// earlier report and SortEndToEnd's or DriverSubmit's allocs/op regressed
// more than 10% against it, monoperf exits non-zero.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/figures"
	"repro/internal/units"
	"repro/perf"
)

// benchSortEndToEnd runs the small two-executor sort the golden test locks
// down, on one sweep worker so the ns/op means "single-core simulation
// cost". Mirrors BenchmarkSortEndToEnd in internal/figures.
func benchSortEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.SortSized(context.Background(), figures.Setup{Workers: 1}, 8*units.GB, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func main() {
	out := flag.String("out", "BENCH_9.json", "report path")
	quick := flag.Bool("quick", false, "CI-sized run: fewer chaos seeds")
	workers := flag.Int("parallel", 0,
		"worker count for the parallel sweep leg (0 = min(8, NumCPU): more workers than cores only measures time-slicing overhead)")
	baseline := flag.String("baseline", "",
		"earlier BENCH_*.json to gate against: exit non-zero if SortEndToEnd or DriverSubmit allocs/op regressed >10%")
	flag.Parse()

	if *workers <= 0 {
		*workers = runtime.NumCPU()
		if *workers > 8 {
			*workers = 8
		}
	}
	seeds := 8
	if *quick {
		seeds = 3
	}
	rep := perf.NewReport()
	rep.Benchmarks = []perf.BenchResult{
		perf.Bench("EngineChurn", perf.BenchEngineChurn),
		perf.Bench("FabricAllToAllShuffle", perf.BenchFabricAllToAll),
		perf.Bench("SortEndToEnd", benchSortEndToEnd),
		perf.Bench("DriverSubmit", perf.BenchDriverSubmit),
		perf.Bench("MultiJobSteadyState", perf.BenchMultiJobSteadyState),
	}
	sw, err := perf.CompareSweep("chaos", seeds*2, *workers, func(workers int) ([]byte, error) {
		res, err := figures.Chaos(context.Background(), figures.Setup{Workers: workers}, seeds)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		res.Fprint(&buf)
		return buf.Bytes(), nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "monoperf: %v\n", err)
		os.Exit(1)
	}
	rep.Sweep = sw
	if err := rep.Write(*out); err != nil {
		fmt.Fprintf(os.Stderr, "monoperf: %v\n", err)
		os.Exit(1)
	}
	var base *perf.Report
	if *baseline != "" {
		base, err = perf.LoadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "monoperf: reading baseline: %v\n", err)
			os.Exit(1)
		}
	}
	for _, b := range rep.Benchmarks {
		fmt.Printf("%-24s %12.1f ns/op %8d allocs/op %10d B/op",
			b.Name, b.NsPerOp, b.AllocsPerOp, b.BytesPerOp)
		if base != nil {
			if old, ok := base.Benchmark(b.Name); ok && old.AllocsPerOp > 0 {
				fmt.Printf("   (baseline %8d allocs/op, %+.1f%%)",
					old.AllocsPerOp, 100*float64(b.AllocsPerOp-old.AllocsPerOp)/float64(old.AllocsPerOp))
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-24s serial %.0f ms, parallel(%d) %.0f ms on %d CPUs, speedup %.2fx, identical %v\n",
		"sweep:"+sw.Experiment, sw.SerialMs, sw.Workers, sw.ParallelMs, sw.NumCPU, sw.Speedup, sw.Identical)
	if sw.Flagged {
		fmt.Fprintf(os.Stderr,
			"monoperf: warning: parallel sweep speedup %.2fx < 1 with %d workers on %d CPUs — number is an overhead measurement, not a win\n",
			sw.Speedup, sw.Workers, rep.NumCPU)
	}
	fmt.Printf("wrote %s\n", *out)
	if !sw.Identical {
		fmt.Fprintln(os.Stderr, "monoperf: parallel sweep output diverged from serial run")
		os.Exit(1)
	}
	if base != nil {
		for _, name := range []string{"SortEndToEnd", "DriverSubmit"} {
			if err := rep.AllocGate(base, name, 0.10); err != nil {
				fmt.Fprintf(os.Stderr, "monoperf: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
