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
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden")

// golden holds what `monobench all` prints, less its timing lines.
const golden = "testdata/all.golden"

// TestAll is the judge of every paper claim. It runs each experiment once,
// through the same loop as `monobench all`, and fails on every false
// verdict (each one named on its own line) and on any printed byte that
// differs from the golden, less the "[… completed in …]" lines. Regenerate
// the golden with: go test ./cmd/monobench -run TestAll -update
func TestAll(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := monobench([]string{"all"}, &stdout, &stderr)
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		if line != "" {
			t.Error(line)
		}
	}
	if code != 0 {
		t.Errorf("monobench all exited %d", code)
	}
	got := withoutTimings(stdout.Bytes())
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s at %s\n(if the change is intentional, rerun with -update)",
			golden, firstDiffLine(got, want))
	}
}

// withoutTimings drops the lines that report wall-clock time.
func withoutTimings(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.Contains(line, []byte("completed in")) {
			b.Write(line)
		}
	}
	return b.Bytes()
}

// firstDiffLine reports the first line where got and want disagree.
func firstDiffLine(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("the end: %d lines, want %d", len(g), len(w))
}

// TestFlagsAfterNames: every flag is accepted before, between and after the
// experiment names, as "-flag value" and as "--flag=value".
func TestFlagsAfterNames(t *testing.T) {
	want := config{csvDir: "out", smoke: true, parallel: 3, timeout: time.Minute, telemetry: "t.jsonl"}
	for _, args := range [][]string{
		{"fig14", "-csv", "out", "-smoke", "-parallel", "3", "-timeout", "1m", "-telemetry", "t.jsonl", "fig15"},
		{"fig14", "--csv=out", "--smoke", "fig15", "--parallel=3", "--timeout=1m", "--telemetry=t.jsonl"},
		{"--csv", "out", "fig14", "--smoke", "--parallel", "3", "fig15", "--timeout", "1m", "--telemetry", "t.jsonl"},
	} {
		cfg, names, err := parseArgs(args, io.Discard)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if cfg != want || !slices.Equal(names, []string{"fig14", "fig15"}) {
			t.Errorf("%q: parsed %+v %q, want %+v [fig14 fig15]", args, cfg, names, want)
		}
	}
	if _, _, err := parseArgs([]string{"fig14", "--parallel"}, io.Discard); err == nil {
		t.Error("a trailing flag without its value parsed")
	}
	dir := filepath.Join(t.TempDir(), "csv")
	if code := monobench([]string{"fig14", "--csv", dir}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("monobench fig14 --csv exited %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig14.csv")); err != nil {
		t.Fatal(err)
	}
}

// TestFalseVerdictExitsOne: an experiment whose verdict is false still
// prints, then monobench names it and exits 1.
func TestFalseVerdictExitsOne(t *testing.T) {
	saved := experiments
	t.Cleanup(func() { experiments = saved })
	experiments = append(slices.Clip(saved), experiment{"false", func(context.Context, figures.Setup, bool) ([]printer, error) {
		return []printer{rendering{
			print:  func(w io.Writer) { fmt.Fprintln(w, "the table") },
			verify: func() error { return errors.New("the claim is false") },
		}}, nil
	}})
	var stdout, stderr bytes.Buffer
	if code := monobench([]string{"false"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "the table") {
		t.Errorf("stdout %q lacks the table", stdout.String())
	}
	if !strings.Contains(stderr.String(), "false: FAILED: the claim is false") {
		t.Errorf("stderr %q does not name the false verdict", stderr.String())
	}
}

// BenchmarkExperiments times each experiment on all CPUs, as monobench runs
// it by default; TestAll judges what they print.
func BenchmarkExperiments(b *testing.B) {
	setup := figures.Setup{Workers: runtime.NumCPU()}
	for _, e := range experiments {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.run(context.Background(), setup, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
