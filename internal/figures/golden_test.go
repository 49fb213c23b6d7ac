package figures

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden determinism file")

// goldenOutput renders a small sort (both systems) and one big data benchmark
// query through the same code paths the paper figures use, at full float
// precision so any drift in the simulation shows up byte-for-byte.
func goldenOutput(t *testing.T, setup Setup) []byte {
	t.Helper()
	var buf bytes.Buffer

	sr, err := SortSized(bg, setup, 16*units.GB, 4)
	if err != nil {
		t.Fatal(err)
	}
	sr.Fprint(&buf)
	for _, row := range sr.Rows {
		fmt.Fprintf(&buf, "%s job=%.9f map=%.9f reduce=%.9f\n",
			row.System, float64(row.Job), float64(row.Map), float64(row.Reduce))
	}

	q := workloads.BDBQueryNames()[0]
	res, err := execute(bg, setup, 5, cluster.M2_4XLarge(), run.Options{Mode: run.Monotasks},
		func(env *workloads.Env) (*task.JobSpec, error) { return workloads.BDBQuery(q, env) })
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	fmt.Fprintf(&buf, "bdb q%s monotasks job=%.9f\n", q, float64(j.Duration()))
	for _, st := range j.Stages {
		fmt.Fprintf(&buf, "  %s start=%.9f end=%.9f\n", st.Spec.Name, float64(st.Start), float64(st.End))
	}
	return buf.Bytes()
}

// TestGoldenDeterminism is the regression gate for the repo's central
// determinism claim: the same experiment must produce byte-identical output
// twice in one process, and byte-identical output to the checked-in golden
// file across processes, machines, and (under -race) goroutine schedules.
// Regenerate the file with: go test ./internal/figures -run Golden -update
func TestGoldenDeterminism(t *testing.T) {
	a := goldenOutput(t, allCPUs())
	b := goldenOutput(t, allCPUs())
	if !bytes.Equal(a, b) {
		t.Fatalf("same-process replay differs:\nfirst:\n%s\nsecond:\n%s", firstDiffLine(a, b), firstDiffLine(b, a))
	}

	golden := filepath.Join("testdata", "golden_determinism.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(a))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(a, want) {
		t.Fatalf("output drifted from %s at:\n%s\n(if the change is intentional, rerun with -update)",
			golden, firstDiffLine(a, want))
	}
}

// TestGoldenSerialVsParallel locks the sweep pool's determinism contract:
// the same experiments at --parallel 1 and --parallel 8 must render
// byte-identical output. The comparison covers the golden corpus plus a
// three-seed chaos matrix (a six-cell grid), so the parallel leg genuinely
// fans cells across workers. Every chaos row must also come out correct and
// reproducible under both settings.
func TestGoldenSerialVsParallel(t *testing.T) {
	render := func(setup Setup) []byte {
		var buf bytes.Buffer
		buf.Write(goldenOutput(t, setup))
		cr, err := Chaos(bg, setup, 3)
		if err != nil {
			t.Fatal(err)
		}
		cr.Fprint(&buf)
		for _, row := range cr.Rows {
			// The chaos plan injects task kills and flaky fetch windows, so
			// these verdicts cover FailRunningTasks and fetch-timeout retries.
			if !row.Correct || !row.Reproducible {
				t.Fatalf("chaos seed %d: correct=%v reproducible=%v (%s)",
					row.Seed, row.Correct, row.Reproducible, row.Outcome)
			}
		}
		return buf.Bytes()
	}
	serial := render(Setup{Workers: 1})
	parallel := render(Setup{Workers: 8})
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel sweep output diverged from serial at:\n%s",
			firstDiffLine(parallel, serial))
	}
}

// firstDiffLine reports the first line where got and want disagree.
func firstDiffLine(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length %d vs %d bytes", len(got), len(want))
}
