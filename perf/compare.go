package perf

// This file is the repo's benchmark-trajectory harness: it reruns the
// hot-path microbenchmarks (sim event loop, netsim rerate) and times a
// serial-vs-parallel experiment sweep, emitting the numbers as a
// BENCH_*.json report. Experiment-level pieces (the end-to-end sort, the
// chaos matrix) are injected by the caller — cmd/monoperf wires them up —
// because this package sits below internal/figures in the import graph
// (monospark's tests import perf, and figures imports monospark).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// BenchResult is one microbenchmark's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// SweepCompare is the serial-vs-parallel experiment comparison: the same
// multi-cell grid run at --parallel 1 and --parallel N, with the rendered
// output hashed to prove the results are byte-identical.
type SweepCompare struct {
	Experiment   string  `json:"experiment"`
	Cells        int     `json:"cells"`
	Workers      int     `json:"workers"`
	SerialMs     float64 `json:"serial_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
	SerialHash   string  `json:"serial_hash"`
	ParallelHash string  `json:"parallel_hash"`
	Identical    bool    `json:"identical"`
	// NumCPU is the core count the comparison ran on — the context a reader
	// needs to judge the speedup (BENCH_4.json was produced on a one-core
	// host, where no parallel speedup is possible).
	NumCPU int `json:"num_cpu,omitempty"`
	// Flagged marks a comparison whose parallel leg was no faster than the
	// serial leg (speedup < 1) on a machine that has cores to parallelize
	// over. On a single-core host goroutines just time-slice one CPU and pay
	// the coordination overhead, so speedup < 1 is the expected outcome, not
	// a regression, and is never flagged. Anywhere else consumers must treat
	// a flagged speedup as a caveat, never a win.
	Flagged bool `json:"flagged,omitempty"`
}

// flagSpeedup decides whether a serial-vs-parallel speedup is suspicious:
// only sub-1 speedups on multi-core hosts are. A single-core host cannot
// run sweep cells concurrently, so its parallel leg losing to serial is
// physics, not a bug.
func flagSpeedup(speedup float64, numCPU int) bool {
	return speedup < 1 && numCPU > 1
}

// Report is the full BENCH_*.json payload.
type Report struct {
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []BenchResult `json:"benchmarks"`
	Sweep      SweepCompare  `json:"sweep"`
}

// NewReport stamps the environment fields.
func NewReport() *Report {
	return &Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Bench runs one benchmark function via testing.Benchmark and records it.
func Bench(name string, fn func(*testing.B)) BenchResult {
	r := testing.Benchmark(fn)
	return BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// BenchEngineChurn is the steady-state sim event loop: a warm engine where
// every firing cancels one event and schedules two, so the pooled free list
// is exercised rather than the initial heap growth. This mirrors
// BenchmarkEngineChurn in internal/sim.
func BenchEngineChurn(b *testing.B) {
	e := sim.NewEngine()
	const width = 64
	refs := make([]sim.EventRef, width)
	fns := make([]func(), width)
	for i := range fns {
		slot := i
		fns[slot] = func() {
			next := (slot + 1) % width
			e.Cancel(refs[next])
			refs[next] = e.After(sim.Duration(width), fns[next])
			refs[slot] = e.After(sim.Duration(slot%7)+1, fns[slot])
		}
	}
	for i := range fns {
		refs[i] = e.After(sim.Duration(i+1), fns[i])
	}
	for i := 0; i < 10*width; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchFabricAllToAll is netsim's worst case: an 8-machine all-to-all
// shuffle where every rerate's connected component spans every flow. Mirrors
// BenchmarkFabricAllToAllShuffle in internal/netsim.
func BenchFabricAllToAll(b *testing.B) {
	const n = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		f := netsim.NewFabric(eng, n, 1e9)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					f.Transfer(src, dst, 64<<20, func() {})
				}
			}
		}
		eng.Run()
	}
}

// timedRender runs the experiment at the given sweep worker count and
// returns its rendered output plus the wall-clock time.
func timedRender(render func(workers int) ([]byte, error), workers int) ([]byte, time.Duration, error) {
	start := time.Now()
	out, err := render(workers)
	return out, time.Since(start), err
}

// CompareSweep runs the same experiment grid serially and with `workers`
// goroutines, and reports wall-clock times plus output hashes. render must
// execute the experiment on the sweep worker count it is given and return
// its rendered output. Identical hashes are the determinism proof: the sweep
// pool may execute cells in any order, but the assembled experiment output
// must not change.
func CompareSweep(experiment string, cells, workers int, render func(workers int) ([]byte, error)) (SweepCompare, error) {
	serial, serialDur, err := timedRender(render, 1)
	if err != nil {
		return SweepCompare{}, err
	}
	par, parDur, err := timedRender(render, workers)
	if err != nil {
		return SweepCompare{}, err
	}
	sh, ph := sha256.Sum256(serial), sha256.Sum256(par)
	speedup := float64(serialDur) / float64(parDur)
	return SweepCompare{
		Experiment:   experiment,
		Cells:        cells,
		Workers:      workers,
		SerialMs:     float64(serialDur.Microseconds()) / 1e3,
		ParallelMs:   float64(parDur.Microseconds()) / 1e3,
		Speedup:      speedup,
		SerialHash:   hex.EncodeToString(sh[:]),
		ParallelHash: hex.EncodeToString(ph[:]),
		Identical:    bytes.Equal(serial, par),
		NumCPU:       runtime.NumCPU(),
		Flagged:      flagSpeedup(speedup, runtime.NumCPU()),
	}, nil
}

// Write stores the report as indented JSON at path.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a previously written BENCH_*.json report.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Benchmark returns the named benchmark's result, if the report has one.
func (r *Report) Benchmark(name string) (BenchResult, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return BenchResult{}, false
}

// AllocGate compares the named benchmark's allocs/op against a baseline
// report and fails when it regressed by more than tolerance (0.10 = 10%).
// allocs/op is the gated quantity because it is machine-independent —
// allocation counts in a deterministic simulation do not vary with CPU
// speed the way ns/op does. Benchmarks absent from either report pass (a
// freshly added benchmark has no baseline yet).
func (r *Report) AllocGate(baseline *Report, name string, tolerance float64) error {
	cur, ok := r.Benchmark(name)
	if !ok {
		return nil
	}
	base, ok := baseline.Benchmark(name)
	if !ok || base.AllocsPerOp <= 0 {
		return nil
	}
	limit := float64(base.AllocsPerOp) * (1 + tolerance)
	if float64(cur.AllocsPerOp) > limit {
		return fmt.Errorf("perf: %s allocs/op regressed: %d vs baseline %d (tolerance %.0f%%)",
			name, cur.AllocsPerOp, base.AllocsPerOp, tolerance*100)
	}
	return nil
}
