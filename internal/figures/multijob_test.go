package figures

import (
	"math"
	"strings"
	"testing"
)

// TestMultijobSmoke encodes the experiment's acceptance criteria: N≥8
// concurrent jobs across ≥2 pools all finish, weighted pools receive slot
// shares within 10% of their weights, and mono-mode attribution stays
// near-exact at N jobs while Spark's slot-share split mispredicts.
func TestMultijobSmoke(t *testing.T) {
	r, err := Multijob(bg, allCPUs(), true)
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchJobs < 8 || r.BatchFinished != r.BatchJobs {
		t.Fatalf("batch finished %d/%d jobs, want all of ≥8", r.BatchFinished, r.BatchJobs)
	}
	if len(r.Shares) < 2 {
		t.Fatalf("got %d pools, want ≥2", len(r.Shares))
	}
	for _, s := range r.Shares {
		if math.Abs(s.GotShare-s.WantShare) > 0.10 {
			t.Errorf("pool %s share %.3f, want %.3f ±0.10", s.Pool, s.GotShare, s.WantShare)
		}
	}
	monoMed, _ := MedianAndP75(r.MonoErrors)
	sparkMed, sparkP75 := MedianAndP75(r.SparkErrors)
	if monoMed >= 5 {
		t.Errorf("mono attribution median error %.1f%%, want <5%%", monoMed)
	}
	if sparkMed <= monoMed {
		t.Errorf("spark attribution median error %.1f%% not worse than mono's %.1f%%", sparkMed, monoMed)
	}
	if len(r.Latency) == 0 {
		t.Fatal("no latency rows")
	}
	for _, row := range r.Latency {
		if row.MonoP50 <= 0 || row.SparkP50 <= 0 || row.MonoP99 < row.MonoP50 {
			t.Errorf("implausible latency row %+v", row)
		}
	}
	var sb strings.Builder
	r.Fprint(&sb)
	if !strings.Contains(sb.String(), "fair-share pools") {
		t.Fatalf("Fprint output missing sections:\n%s", sb.String())
	}
	t.Logf("spark p75 err %.1f%%\n%s", sparkP75, sb.String())
}
