package figures

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Each experiment's claim is stated once, in its result's Verify, and the
// printed output of all of them is pinned by cmd/monobench's TestAll; the
// figure tests here judge a few results in this package's own tests, and
// the rest cover the printers and arithmetic.

var bg = context.Background()

// allCPUs runs an experiment's grid on every CPU, as monobench does by
// default.
func allCPUs() Setup { return Setup{Workers: runtime.NumCPU()} }

// verdict fails t when a result's claim does not hold.
func verdict(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

func TestFig05AndFig06(t *testing.T) {
	r, err := Fig05(bg, allCPUs())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("%d queries, want 10", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Spark <= 0 || row.SparkFlush <= 0 || row.MonoSpark <= 0 {
			t.Fatalf("q%s has non-positive runtime: %+v", row.Query, row)
		}
	}
	verdict(t, r.Verify())
	if len(r.Util) != 10 {
		t.Fatalf("utilization summaries for %d queries, want 10", len(r.Util))
	}
	verdict(t, r.VerifyFig6())
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "Figure 5") || !strings.Contains(buf.String(), "1c") {
		t.Fatal("Fig. 5 printer output incomplete")
	}
	buf.Reset()
	r.FprintFig6(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("Fig. 6 printer output incomplete")
	}
}

func TestFig09MonoKeepsBottleneckBusier(t *testing.T) {
	r, err := Fig09(bg, allCPUs())
	if err != nil {
		t.Fatal(err)
	}
	verdict(t, r.Verify())
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Fatal("printer output incomplete")
	}
}

func TestFig14NetworkIrrelevant(t *testing.T) {
	r, err := Fig14(bg, allCPUs())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("%d queries, want 10", len(r.Rows))
	}
	verdict(t, r.Verify())
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "Figure 14") {
		t.Fatal("printer output incomplete")
	}
}

func TestSec63Prediction(t *testing.T) {
	r, err := Sec63(bg, allCPUs())
	if err != nil {
		t.Fatal(err)
	}
	verdict(t, r.Verify())
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "6.3") {
		t.Fatal("printer output incomplete")
	}
}

func TestFig16AttributionAsymmetry(t *testing.T) {
	r, err := Fig16(bg, allCPUs())
	if err != nil {
		t.Fatal(err)
	}
	verdict(t, r.Verify())
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "Figure 16") {
		t.Fatal("printer output incomplete")
	}
}

func TestPredictRowArithmetic(t *testing.T) {
	row := PredictRow{Label: "x", Baseline: 10, Predicted: 12, Actual: 10}
	if row.ErrPct() != 20 {
		t.Fatalf("ErrPct = %v, want 20", row.ErrPct())
	}
	r := PredictResult{Title: "t", Rows: []PredictRow{row, {Predicted: 5, Actual: 10}}}
	if r.MaxAbsErrPct() != 50 {
		t.Fatalf("MaxAbsErrPct = %v, want 50", r.MaxAbsErrPct())
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "max |error|") {
		t.Fatal("printer output incomplete")
	}
}

func TestPctErr(t *testing.T) {
	if pctErr(11, 10) != 10 {
		t.Fatalf("pctErr(11,10) = %v", pctErr(11, 10))
	}
	if pctErr(5, 0) != 0 {
		t.Fatal("pctErr with zero actual should be 0")
	}
}

func TestCSVTables(t *testing.T) {
	// Hand-built results: every CSV table must round-trip through the
	// encoder with a consistent column count.
	cases := []interface {
		CSV() *CSVTable
	}{
		&SortResult{Rows: []SortRow{{System: "spark", Job: 10, Map: 4, Reduce: 6}}},
		&Fig02Result{Start: 0, Step: 1, CPU: []float64{0.5}, Disk0: []float64{1}, Disk1: []float64{0}},
		&Fig05Result{Rows: []Fig05Row{{Query: "1a", Spark: 1, SparkFlush: 2, MonoSpark: 3}}},
		&Fig07Result{Rows: []Fig07Row{{Stage: "m", Spark: 1, Mono: 2}}},
		&Fig08Result{Rows: []Fig08Row{{Tasks: 160, Waves: 1, Spark: 1, Mono: 2}}},
		&PredictResult{Rows: []PredictRow{{Label: "x", Baseline: 1, Predicted: 2, Actual: 2}}},
		&Fig12Result{Rows: []Fig12Row{{Query: "1a"}}},
		&Fig14Result{Rows: []Fig14Row{{Query: "1a", Original: 1, NoDiskFrac: 0.5, NoNetFrac: 1, NoCPUFrac: 1}}},
		&Fig16Result{SparkErrors: []float64{0.1}, MonoErrors: []float64{0}},
		&Fig18Result{TaskCounts: []int{1, 2}, Rows: []Fig18Row{{Workload: "s", SparkByTasks: map[int]sim.Duration{1: 5, 2: 3}, BestSpark: 3, Mono: 3}}},
		&AblationResult{Rows: []AblationRow{{Label: "a", Seconds: 1}}},
		&FailureResult{Rows: []FailureRow{{System: "spark", Clean: 1, WithFailure: 2}}},
	}
	for _, c := range cases {
		tbl := c.CSV()
		if tbl.Name == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
			t.Fatalf("%T: empty CSV table", c)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Fatalf("%T: row width %d ≠ header width %d", c, len(row), len(tbl.Header))
			}
		}
		var buf bytes.Buffer
		if err := tbl.Write(&buf); err != nil {
			t.Fatalf("%T: %v", c, err)
		}
		lines := strings.Count(buf.String(), "\n")
		if lines != len(tbl.Rows)+1 {
			t.Fatalf("%T: %d CSV lines for %d rows", c, lines, len(tbl.Rows))
		}
	}
}
