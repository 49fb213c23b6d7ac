package task

import (
	"testing"
	"unsafe"

	"repro/internal/dfs"
)

func validStage(id int) *StageSpec {
	return &StageSpec{ID: id, Name: "s", NumTasks: 4, OpCPU: 1}
}

func TestStageValidate(t *testing.T) {
	if err := validStage(0).Validate(); err != nil {
		t.Fatalf("valid stage rejected: %v", err)
	}
	bad := []*StageSpec{
		{ID: 0, Name: "none", NumTasks: 0},
		{ID: 0, Name: "blocks", NumTasks: 3, InputBlocks: []*dfs.Block{{}}},
		{ID: 0, Name: "both", NumTasks: 1, InputBlocks: []*dfs.Block{{}}, ParentIDs: []int{0}},
		{ID: 0, Name: "negcpu", NumTasks: 1, OpCPU: -1},
		{ID: 0, Name: "negbytes", NumTasks: 1, ShuffleOutBytes: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("stage %q validated but should not have", s.Name)
		}
	}
}

func TestJobValidate(t *testing.T) {
	j := &JobSpec{Name: "j", Stages: []*StageSpec{validStage(0), validStage(1)}}
	j.Stages[1].ParentIDs = []int{0}
	if err := j.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	empty := &JobSpec{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty job accepted")
	}
	wrongID := &JobSpec{Name: "w", Stages: []*StageSpec{validStage(5)}}
	if err := wrongID.Validate(); err == nil {
		t.Error("non-dense stage ID accepted")
	}
	forward := &JobSpec{Name: "f", Stages: []*StageSpec{validStage(0), validStage(1)}}
	forward.Stages[0].ParentIDs = []int{1}
	if err := forward.Validate(); err == nil {
		t.Error("forward dependency accepted")
	}
	selfDep := &JobSpec{Name: "s", Stages: []*StageSpec{validStage(0)}}
	selfDep.Stages[0].ParentIDs = []int{0}
	if err := selfDep.Validate(); err == nil {
		t.Error("self dependency accepted")
	}
}

func TestStageTotals(t *testing.T) {
	s := &StageSpec{NumTasks: 10, DeserCPU: 1, OpCPU: 2, SerCPU: 0.5}
	if got := s.TotalCPU(); got != 35 {
		t.Fatalf("TotalCPU = %v, want 35", got)
	}
	if got := s.TotalOpCPU(); got != 20 {
		t.Fatalf("TotalOpCPU = %v, want 20", got)
	}
}

func TestTaskInputBytes(t *testing.T) {
	tk := &Task{
		DiskReadBytes: 100,
		MemReadBytes:  50,
		RemoteRead:    &Fetch{From: 1, Bytes: 25},
		Fetches:       []Fetch{{From: 0, Bytes: 10}, {From: 2, Bytes: 15}},
	}
	if got := tk.InputBytes(); got != 200 {
		t.Fatalf("InputBytes = %d, want 200", got)
	}
}

func TestMetricAccessors(t *testing.T) {
	m := MonotaskMetric{Queued: 1, Start: 3, End: 7}
	if m.Duration() != 4 {
		t.Fatalf("Duration = %v, want 4", m.Duration())
	}
	if m.QueueDelay() != 2 {
		t.Fatalf("QueueDelay = %v, want 2", m.QueueDelay())
	}
	tm := &TaskMetrics{Start: 2, End: 12}
	if tm.Duration() != 10 {
		t.Fatalf("task Duration = %v, want 10", tm.Duration())
	}
}

func TestStageMetricsAggregation(t *testing.T) {
	sm := &StageMetrics{
		Start: 0, End: 10,
		Tasks: []*TaskMetrics{
			{Monotasks: []MonotaskMetric{
				{Resource: CPUResource, Kind: KindCompute, Start: 0, End: 2},
				{Resource: DiskResource, Kind: KindInputRead, Start: 0, End: 3, Bytes: 300},
				{Resource: DiskResource, Kind: KindShuffleWrite, Start: 3, End: 4, Bytes: 100},
			}},
			{Monotasks: []MonotaskMetric{
				{Resource: CPUResource, Kind: KindCompute, Start: 1, End: 4},
				{Resource: NetworkResource, Kind: KindNetFetch, Start: 0, End: 5, Bytes: 500},
			}},
		},
	}
	if got := sm.MonotaskSeconds(CPUResource, -1); got != 5 {
		t.Fatalf("cpu seconds = %v, want 5", got)
	}
	if got := sm.MonotaskSeconds(DiskResource, KindInputRead); got != 3 {
		t.Fatalf("input-read seconds = %v, want 3", got)
	}
	if got := sm.MonotaskBytes(DiskResource, -1); got != 400 {
		t.Fatalf("disk bytes = %d, want 400", got)
	}
	if got := sm.MonotaskBytes(NetworkResource, KindNetFetch); got != 500 {
		t.Fatalf("net bytes = %d, want 500", got)
	}
	if sm.Duration() != 10 {
		t.Fatalf("stage duration = %v, want 10", sm.Duration())
	}
}

func TestStringers(t *testing.T) {
	if CPUResource.String() != "cpu" || DiskResource.String() != "disk" || NetworkResource.String() != "network" {
		t.Fatal("Resource.String broken")
	}
	if Resource(99).String() == "" || Kind(99).String() == "" {
		t.Fatal("unknown values should still render")
	}
	kinds := []Kind{KindCompute, KindInputRead, KindShuffleWrite, KindShuffleServeRead, KindOutputWrite, KindNetFetch}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate Kind string %q", s)
		}
		seen[s] = true
	}
}

// TestMetricRecordSizes pins the metric records' sizes: a run keeps one
// MonotaskMetric per monotask and one TaskMetrics per task attempt, so a
// field added to either grows every run's heap. TaskMetrics must stay in
// the 96-byte size class it took at 88 bytes, so the pipelined executor's
// records, which hold no monotasks, cost what they did.
func TestMetricRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(MonotaskMetric{}); got != 40 {
		t.Errorf("MonotaskMetric is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(TaskMetrics{}); got > 96 {
		t.Errorf("TaskMetrics is %d bytes, want ≤ 96", got)
	}
}
