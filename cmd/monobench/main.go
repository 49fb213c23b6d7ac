// Command monobench regenerates the paper's evaluation tables and figures
// on the virtual cluster. Run one experiment by name, or all of them:
//
//	monobench fig5          # big data benchmark comparison
//	monobench fig12         # monotasks-model disk-removal predictions
//	monobench sort          # §5.2 600 GB sort
//	monobench all
//
// Flags may come before or after the names. Every experiment is
// deterministic: repeated runs print identical numbers. Each one then judges
// its figure's claim, and monobench exits 1 when any claim is false.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
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

// config is monobench's command line, less the experiment names.
type config struct {
	// csvDir, when set, receives each experiment's data as CSV files.
	csvDir string
	// smoke shrinks experiments that support it (multijob, memory) to CI
	// size.
	smoke bool
	// parallel sets how many grid cells the sweep pool runs concurrently.
	// Each cell is an independent simulation; results are identical at any
	// setting.
	parallel int
	// timeout, when positive, bounds each experiment's wall-clock time:
	// cells still pending when it expires fail with a deadline error and
	// runs already simulating are aborted cleanly between event batches, so
	// a stuck experiment reports failed instead of hanging the whole run.
	timeout time.Duration
	// telemetry, when set, attaches a live sampler to every experiment run
	// and writes all captured snapshots to this file as JSON Lines
	// (cmd/monotop reads the format). Output bytes are identical at any
	// parallel setting.
	telemetry string
}

// parseArgs splits args into the flags and the experiment names. The flag
// package stops at the first non-flag argument, so the arguments after each
// name are parsed again: flags may follow names.
func parseArgs(args []string, stderr io.Writer) (config, []string, error) {
	var c config
	fs := flag.NewFlagSet("monobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	fs.StringVar(&c.csvDir, "csv", "", "also write each experiment's table as CSV into this directory")
	fs.BoolVar(&c.smoke, "smoke", false, "run a reduced, CI-sized version of experiments that support it")
	fs.IntVar(&c.parallel, "parallel", runtime.NumCPU(), "worker goroutines for experiment grids (1 = serial)")
	fs.DurationVar(&c.timeout, "timeout", 0, "per-experiment wall-clock budget (0 = none), e.g. 90s")
	fs.StringVar(&c.telemetry, "telemetry", "", "write live telemetry snapshots from every run to this JSONL file")
	var names []string
	for {
		if err := fs.Parse(args); err != nil {
			return c, nil, err
		}
		if fs.NArg() == 0 {
			return c, names, nil
		}
		names = append(names, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

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
	os.Exit(monobench(os.Args[1:], os.Stdout, os.Stderr))
}

// monobench runs the experiments args names, printing their tables to
// stdout and every failure to stderr, and returns the exit status: 0 when
// every experiment completed and its verdict holds, 1 when any failed, 2 on
// a usage error.
func monobench(args []string, stdout, stderr io.Writer) int {
	cfg, names, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if len(names) == 1 && names[0] == "all" {
		names = nil
		for _, e := range experiments {
			names = append(names, e.name)
		}
	}
	if len(names) == 0 {
		usage(stderr)
		return 2
	}
	runs := make([]experiment, len(names))
	for i, name := range names {
		j := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
		if j < 0 {
			fmt.Fprintf(stderr, "monobench: unknown experiment %q\n\n", name)
			usage(stderr)
			return 2
		}
		runs[i] = experiments[j]
	}
	if cfg.csvDir != "" {
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "monobench: %v\n", err)
			return 1
		}
	}
	setup := figures.Setup{Workers: cfg.parallel}
	var tc *telemetryCollector
	if cfg.telemetry != "" {
		tc = &telemetryCollector{}
		setup.Telemetry = tc.collect
	}
	var failed []string
	for _, e := range runs {
		start := time.Now()
		ctx, cancel := experimentContext(cfg.timeout)
		sections, err := e.run(ctx, setup, cfg.smoke)
		cancel()
		if err != nil {
			// A failed experiment (timed-out or crashed cells) is reported
			// and the remaining experiments still run; the exit code at the
			// end says the run was incomplete.
			fmt.Fprintf(stderr, "monobench: %s: FAILED after %v: %v\n",
				e.name, time.Since(start).Round(time.Millisecond), err)
			failed = append(failed, e.name)
			continue
		}
		for i, s := range sections {
			s.Fprint(stdout)
			fmt.Fprintln(stdout)
			if cfg.csvDir != "" {
				if err := writeCSV(cfg.csvDir, e.name, i, s); err != nil {
					fmt.Fprintf(stderr, "monobench: csv: %v\n", err)
					return 1
				}
			}
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		refuted := false
		for _, s := range sections {
			if v, ok := s.(verdict); ok {
				if err := v.Verify(); err != nil {
					fmt.Fprintf(stderr, "monobench: %s: FAILED: %v\n", e.name, err)
					refuted = true
				}
			}
		}
		if refuted {
			failed = append(failed, e.name)
		}
	}
	if tc != nil {
		if err := tc.write(cfg.telemetry); err != nil {
			fmt.Fprintf(stderr, "monobench: telemetry: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "[telemetry: %d run streams written to %s]\n", len(tc.chunks), cfg.telemetry)
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "monobench: %d of %d experiments failed: %s\n",
			len(failed), len(names), strings.Join(failed, ", "))
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: monobench <experiment>... | all\n\nexperiments:\n")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %s\n", e.name)
	}
}

// experimentContext bounds one experiment by timeout, when positive.
func experimentContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// writeCSV stores a section's table, when it has one, under dir.
func writeCSV(dir, name string, idx int, section printer) error {
	t, ok := section.(interface{ CSV() *figures.CSVTable })
	if !ok {
		return nil
	}
	fname := fmt.Sprintf("%s.csv", name)
	if idx > 0 {
		fname = fmt.Sprintf("%s-%d.csv", name, idx)
	}
	f, err := os.Create(filepath.Join(dir, fname))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV().Write(f)
}
