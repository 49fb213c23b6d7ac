package monospark_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/monospark"
)

// These tests drive exports that nothing else in the module calls, from
// outside the package, as a user of the library would.

func sum(a, b any) any { return a.(int) + b.(int) }

// keyedPairs is 200 pairs over 7 keys in 4 partitions.
func keyedPairs(t *testing.T, ctx *monospark.Context) *monospark.Dataset {
	t.Helper()
	recs := make([]any, 200)
	for i := range recs {
		recs[i] = i
	}
	ds, err := ctx.Parallelize(recs, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ds.MapToPair(func(v any) monospark.Pair {
		return monospark.Pair{Key: fmt.Sprint("k", v.(int)%7), Value: v.(int)}
	})
}

// collectSorted runs ds and returns its pairs sorted by key, with the run.
func collectSorted(t *testing.T, ds *monospark.Dataset) ([]monospark.Pair, *monospark.JobRun) {
	t.Helper()
	recs, run, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]monospark.Pair, len(recs))
	for i, r := range recs {
		out[i] = r.(monospark.Pair)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, run
}

// tasksPerStage counts the distinct tasks of each stage in a run's trace.
func tasksPerStage(t *testing.T, run *monospark.JobRun) map[int]int {
	t.Helper()
	var buf bytes.Buffer
	if err := run.WriteTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	counts := map[int]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r struct {
			StageID int `json:"stageId"`
			Task    int `json:"task"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if k := [2]int{r.StageID, r.Task}; !seen[k] {
			seen[k] = true
			counts[r.StageID]++
		}
	}
	return counts
}

func TestReduceByKeyWithPartitions(t *testing.T) {
	ctx, err := monospark.New(monospark.Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := collectSorted(t, keyedPairs(t, ctx).ReduceByKey(sum))

	reduced := keyedPairs(t, ctx).ReduceByKeyWithPartitions(sum, 3)
	if got := reduced.Partitions(); got != 3 {
		t.Errorf("ReduceByKeyWithPartitions(f, 3) has %d partitions, want 3", got)
	}
	got, run := collectSorted(t, reduced)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReduceByKeyWithPartitions(f, 3) = %v, ReduceByKey = %v", got, want)
	}
	counts := tasksPerStage(t, run)
	if len(counts) != 2 || counts[0] != 4 || counts[1] != 3 {
		t.Errorf("tasks per stage %v, want 4 map tasks and 3 reduce tasks", counts)
	}

	for _, n := range []int{0, -1} {
		if got := keyedPairs(t, ctx).ReduceByKeyWithPartitions(sum, n).Partitions(); got != 4 {
			t.Errorf("ReduceByKeyWithPartitions(f, %d) has %d partitions, want the parent's 4", n, got)
		}
	}
}

func TestStageDurations(t *testing.T) {
	ctx, err := monospark.New(monospark.Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, run := collectSorted(t, keyedPairs(t, ctx).ReduceByKey(sum))
	durs := run.StageDurations()
	stages, err := run.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) != 2 || len(stages) != 2 {
		t.Fatalf("%d stage durations and %d explained stages, want 2 each", len(durs), len(stages))
	}
	var total float64
	for i, d := range durs {
		if d <= 0 || d != stages[i].Actual {
			t.Errorf("stage %d (%s) lasts %v, its metrics say %v", i, stages[i].Stage, d, stages[i].Actual)
		}
		total += d.Seconds()
	}
	if total > run.Duration().Seconds()*(1+1e-9) {
		t.Errorf("stages last %.6f s in all, longer than the %v job", total, run.Duration())
	}
}

func TestRenderTelemetry(t *testing.T) {
	ctx, err := monospark.New(monospark.Config{Machines: 2, Telemetry: &monospark.TelemetryConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	collectSorted(t, keyedPairs(t, ctx).ReduceByKey(sum))
	snaps := ctx.Telemetry().Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no telemetry snapshot captured")
	}
	s := snaps[len(snaps)-1]
	out := monospark.RenderTelemetry(&s)
	for _, want := range []string{
		fmt.Sprintf("monotop  t=%.3fs  snapshot %d", float64(s.T1), s.Seq),
		"bottleneck: " + string(s.Stage.Bottleneck),
		"MACHINE", "m0", "m1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered snapshot lacks %q:\n%s", want, out)
		}
	}
}
