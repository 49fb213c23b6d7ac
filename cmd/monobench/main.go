// Command monobench regenerates the paper's evaluation tables and figures
// on the virtual cluster. Run one experiment by name, or all of them:
//
//	monobench fig5          # big data benchmark comparison
//	monobench fig12         # monotasks-model disk-removal predictions
//	monobench sort          # §5.2 600 GB sort
//	monobench all
//
// Every experiment is deterministic: repeated runs print identical numbers.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/figures"
	"repro/internal/telemetry"
)

// printer is anything a figure returns that can render itself.
type printer interface{ Fprint(io.Writer) }

// verdict is a printed section that also passes or fails: an experiment
// whose verdict fails still prints, then reports the failure and makes the
// run exit non-zero.
type verdict interface{ Verify() error }

// order lists experiments in paper order for `monobench all`.
var order = []string{
	"fig2", "sort", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig11", "fig12", "sec63", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	"ablations", "failure", "chaos", "multijob", "memory",
}

// csvDir, when set, receives each experiment's data as CSV files.
var csvDir = flag.String("csv", "", "also write each experiment's table as CSV into this directory")

// smoke shrinks experiments that support it (multijob) to CI size.
var smoke = flag.Bool("smoke", false, "run a reduced, CI-sized version of experiments that support it")

// parallel sets how many grid cells the sweep pool runs concurrently. Each
// cell is an independent simulation; results are identical at any setting.
var parallel = flag.Int("parallel", runtime.NumCPU(), "worker goroutines for experiment grids (1 = serial)")

// timeout, when positive, bounds each experiment's wall-clock time: cells
// still pending when it expires fail with a deadline error and runs already
// simulating are aborted cleanly between event batches, so a stuck
// experiment reports failed instead of hanging the whole benchmark run.
var timeout = flag.Duration("timeout", 0, "per-experiment wall-clock budget (0 = none), e.g. 90s")

// telemetryOut, when set, attaches a live sampler to every experiment run and
// writes all captured snapshots to this file as JSON Lines (cmd/monotop reads
// the format). Output bytes are identical at any --parallel setting.
var telemetryOut = flag.String("telemetry", "", "write live telemetry snapshots from every run to this JSONL file")

// telemetryCollector gathers each run's snapshot ring as one serialized JSONL
// chunk. Sweep cells finish in nondeterministic wall-clock order under
// --parallel, so chunks are sorted canonically (each chunk is itself a
// deterministic byte string) before writing — the file is then a pure
// function of the experiment set.
type telemetryCollector struct {
	mu     sync.Mutex
	chunks [][]byte
	err    error
}

func (tc *telemetryCollector) collect(s *telemetry.Sampler) {
	var buf bytes.Buffer
	err := telemetry.WriteJSONL(&buf, s.Snapshots())
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err != nil {
		if tc.err == nil {
			tc.err = err
		}
		return
	}
	tc.chunks = append(tc.chunks, buf.Bytes())
}

func (tc *telemetryCollector) write(path string) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.err != nil {
		return tc.err
	}
	sort.Slice(tc.chunks, func(i, j int) bool { return bytes.Compare(tc.chunks[i], tc.chunks[j]) < 0 })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, c := range tc.chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	// Accept --smoke and --parallel after the experiment names too (flag
	// stops parsing at the first non-flag argument).
	kept := args[:0]
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--smoke" || a == "-smoke" {
			*smoke = true
			continue
		}
		if v, ok := strings.CutPrefix(a, "--parallel="); ok {
			setParallelArg(v)
			continue
		}
		if v, ok := strings.CutPrefix(a, "-parallel="); ok {
			setParallelArg(v)
			continue
		}
		if a == "--parallel" || a == "-parallel" {
			if i+1 >= len(args) {
				fmt.Fprintf(os.Stderr, "monobench: %s needs a value\n", a)
				os.Exit(2)
			}
			i++
			setParallelArg(args[i])
			continue
		}
		if v, ok := strings.CutPrefix(a, "--telemetry="); ok {
			*telemetryOut = v
			continue
		}
		if v, ok := strings.CutPrefix(a, "-telemetry="); ok {
			*telemetryOut = v
			continue
		}
		if a == "--telemetry" || a == "-telemetry" {
			if i+1 >= len(args) {
				fmt.Fprintf(os.Stderr, "monobench: %s needs a value\n", a)
				os.Exit(2)
			}
			i++
			*telemetryOut = args[i]
			continue
		}
		if v, ok := strings.CutPrefix(a, "--timeout="); ok {
			setTimeoutArg(v)
			continue
		}
		if v, ok := strings.CutPrefix(a, "-timeout="); ok {
			setTimeoutArg(v)
			continue
		}
		if a == "--timeout" || a == "-timeout" {
			if i+1 >= len(args) {
				fmt.Fprintf(os.Stderr, "monobench: %s needs a value\n", a)
				os.Exit(2)
			}
			i++
			setTimeoutArg(args[i])
			continue
		}
		kept = append(kept, a)
	}
	args = kept
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "monobench: %v\n", err)
			os.Exit(1)
		}
	}
	setup := figures.Setup{Workers: *parallel}
	var tc *telemetryCollector
	if *telemetryOut != "" {
		tc = &telemetryCollector{}
		setup.Telemetry = tc.collect
	}
	names := args
	if len(args) == 1 && args[0] == "all" {
		names = order
	}
	var failed []string
	for _, name := range names {
		runner, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "monobench: unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		ctx, cancel := experimentContext()
		sections, err := runner(ctx, setup)
		cancel()
		if err != nil {
			// A failed experiment (timed-out or crashed cells) is reported
			// and the remaining experiments still run; the exit code at the
			// end says the run was incomplete.
			fmt.Fprintf(os.Stderr, "monobench: %s: FAILED after %v: %v\n",
				name, time.Since(start).Round(time.Millisecond), err)
			failed = append(failed, name)
			continue
		}
		for i, s := range sections {
			s.Fprint(os.Stdout)
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(name, i, s); err != nil {
					fmt.Fprintf(os.Stderr, "monobench: csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		if err := verify(sections); err != nil {
			fmt.Fprintf(os.Stderr, "monobench: %s: FAILED: %v\n", name, err)
			failed = append(failed, name)
		}
	}
	if tc != nil {
		if err := tc.write(*telemetryOut); err != nil {
			fmt.Fprintf(os.Stderr, "monobench: telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[telemetry: %d run streams written to %s]\n", len(tc.chunks), *telemetryOut)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "monobench: %d of %d experiments failed: %s\n",
			len(failed), len(names), strings.Join(failed, ", "))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: monobench <experiment>... | all\n\nexperiments:\n")
	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
}

// experimentContext bounds one experiment by --timeout, when set.
func experimentContext() (context.Context, context.CancelFunc) {
	if *timeout > 0 {
		return context.WithTimeout(context.Background(), *timeout)
	}
	return context.WithCancel(context.Background())
}

// verify checks every section that carries a verdict and returns the first
// failure.
func verify(sections []printer) error {
	for _, s := range sections {
		if v, ok := s.(verdict); ok {
			if err := v.Verify(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSV stores a section's table, when it has one, under csvDir.
func writeCSV(name string, idx int, section printer) error {
	t, ok := section.(interface{ CSV() *figures.CSVTable })
	if !ok {
		return nil
	}
	fname := fmt.Sprintf("%s.csv", name)
	if idx > 0 {
		fname = fmt.Sprintf("%s-%d.csv", name, idx)
	}
	f, err := os.Create(filepath.Join(*csvDir, fname))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV().Write(f)
}

// setTimeoutArg parses a trailing --timeout value into the flag.
func setTimeoutArg(v string) {
	d, err := time.ParseDuration(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "monobench: bad --timeout value %q\n", v)
		os.Exit(2)
	}
	*timeout = d
}

// setParallelArg parses a trailing --parallel value into the flag.
func setParallelArg(v string) {
	n, err := strconv.Atoi(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "monobench: bad --parallel value %q\n", v)
		os.Exit(2)
	}
	*parallel = n
}
