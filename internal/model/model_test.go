package model

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/task"
)

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// res: 80 cores, 1 GB/s disk, 500 MB/s network.
var res = Resources{TotalCores: 80, DiskBW: 1e9, NetBW: 500e6}

func TestIdealTimes(t *testing.T) {
	// The §6.1 worked example: 20 minutes of CPU monotasks over 80 cores =
	// 15 s ideal CPU time; 20 GB over 10 disks × 100 MB/s = 20 s ideal disk.
	s := StageProfile{CPUSeconds: 20 * 60, DiskBytes: 20e9}
	cpu, disk, net, mem := s.IdealTimes(res)
	if !approx(cpu, 15) {
		t.Fatalf("ideal cpu = %v, want 15", cpu)
	}
	if !approx(disk, 20) {
		t.Fatalf("ideal disk = %v, want 20", disk)
	}
	if net != 0 {
		t.Fatalf("ideal net = %v, want 0", net)
	}
	if mem != 0 {
		t.Fatalf("ideal mem = %v, want 0 (memory not modeled)", mem)
	}
	if got := s.ModelTime(res, nil); !approx(got, 20) {
		t.Fatalf("model time = %v, want 20 (disk bound)", got)
	}
	if got := s.Bottleneck(res); got != task.DiskResource {
		t.Fatalf("bottleneck = %v, want disk", got)
	}
}

func TestModelTimeExclusions(t *testing.T) {
	s := StageProfile{CPUSeconds: 800, DiskBytes: 20e9, NetBytes: 5e9}
	// cpu=10, disk=20, net=10.
	if got := s.ModelTime(res, map[task.Resource]bool{task.DiskResource: true}); !approx(got, 10) {
		t.Fatalf("model without disk = %v, want 10", got)
	}
	all := map[task.Resource]bool{task.CPUResource: true, task.DiskResource: true, task.NetworkResource: true}
	if got := s.ModelTime(res, all); got != 0 {
		t.Fatalf("model with everything excluded = %v, want 0", got)
	}
}

func mkProfile() *JobProfile {
	return &JobProfile{
		Name: "sort",
		Res:  res,
		Stages: []StageProfile{
			// Map: disk bound (disk 20 s vs cpu 10 s), ran in 25 s.
			{Name: "map", CPUSeconds: 800, DiskBytes: 20e9, InputReadBytes: 10e9,
				InputDeserSeconds: 200, ActualSeconds: 25},
			// Reduce: network bound (net 20 s vs cpu 5 s, disk 10 s), 24 s.
			{Name: "reduce", CPUSeconds: 400, DiskBytes: 10e9, NetBytes: 10e9, ActualSeconds: 24},
		},
	}
}

func TestPredictNoChange(t *testing.T) {
	p := mkProfile()
	pred := Predict(p)
	if !approx(pred.PredictedSeconds, pred.ActualSeconds) {
		t.Fatalf("no-op prediction %v ≠ actual %v", pred.PredictedSeconds, pred.ActualSeconds)
	}
}

func TestPredictDoubleDiskBW(t *testing.T) {
	p := mkProfile()
	pred := Predict(p, ScaleDiskBW(2))
	// Map: old model 20 (disk), new model: disk 10 vs cpu 10 → 10.
	// Scaled: 25 × 10/20 = 12.5.
	if !approx(pred.Stages[0].PredictedSeconds, 12.5) {
		t.Fatalf("map predicted %v, want 12.5", pred.Stages[0].PredictedSeconds)
	}
	// Reduce: old model 20 (net), new: disk 5, net still 20 → unchanged.
	if !approx(pred.Stages[1].PredictedSeconds, 24) {
		t.Fatalf("reduce predicted %v, want 24 (network bound either way)", pred.Stages[1].PredictedSeconds)
	}
	if !approx(pred.PredictedSeconds, 36.5) {
		t.Fatalf("job predicted %v, want 36.5", pred.PredictedSeconds)
	}
	// Bottleneck shift is reported.
	if pred.Stages[0].OldBottleneck != task.DiskResource {
		t.Fatalf("map old bottleneck %v, want disk", pred.Stages[0].OldBottleneck)
	}
}

func TestPredictHalveDisksSlowsDiskBoundStage(t *testing.T) {
	p := mkProfile()
	pred := Predict(p, ScaleDiskBW(0.5))
	// Map: old 20 → new 40; predicted 25 × 2 = 50.
	if !approx(pred.Stages[0].PredictedSeconds, 50) {
		t.Fatalf("map predicted %v, want 50", pred.Stages[0].PredictedSeconds)
	}
	// Reduce: disk 10 → 20 ties with net 20 → still 20: unchanged.
	if !approx(pred.Stages[1].PredictedSeconds, 24) {
		t.Fatalf("reduce predicted %v, want 24", pred.Stages[1].PredictedSeconds)
	}
}

func TestPredictInMemoryInput(t *testing.T) {
	p := mkProfile()
	pred := Predict(p, InMemoryInput{})
	// Map: disk bytes 20e9−10e9 = 10e9 → 10 s; cpu 800−200 = 600 → 7.5 s.
	// New model 10 vs old 20: predicted 12.5.
	if !approx(pred.Stages[0].PredictedSeconds, 12.5) {
		t.Fatalf("map predicted %v, want 12.5", pred.Stages[0].PredictedSeconds)
	}
	// Reduce unaffected (no input reads).
	if !approx(pred.Stages[1].PredictedSeconds, 24) {
		t.Fatalf("reduce predicted %v, want 24", pred.Stages[1].PredictedSeconds)
	}
}

func TestPredictIsPure(t *testing.T) {
	p := mkProfile()
	before := *p
	Predict(p, ScaleCluster(4), InMemoryInput{}, InfinitelyFast(task.DiskResource))
	if p.Res != before.Res || p.Stages[0] != before.Stages[0] || p.exclusions != nil {
		t.Fatal("Predict mutated the input profile")
	}
}

func TestPredictClusterScale(t *testing.T) {
	p := mkProfile()
	pred := Predict(p, ScaleCluster(4))
	// Every ideal time shrinks 4×, so every stage predicts 4× faster.
	if !approx(pred.PredictedSeconds, (25.0+24.0)/4) {
		t.Fatalf("4× cluster predicted %v, want 12.25", pred.PredictedSeconds)
	}
}

func TestPredictInfinitelyFastDisk(t *testing.T) {
	p := mkProfile()
	pred := Predict(p, InfinitelyFast(task.DiskResource))
	// Map: old model 20 → without disk, max(cpu 10) = 10 → 12.5 s.
	if !approx(pred.Stages[0].PredictedSeconds, 12.5) {
		t.Fatalf("map predicted %v, want 12.5", pred.Stages[0].PredictedSeconds)
	}
	// Reduce: already network bound → unchanged.
	if !approx(pred.Stages[1].PredictedSeconds, 24) {
		t.Fatalf("reduce predicted %v, want 24", pred.Stages[1].PredictedSeconds)
	}
}

func TestPredictCombinedHardwareSoftware(t *testing.T) {
	// The Fig. 13 composition: 4× machines + in-memory input + faster disks.
	p := mkProfile()
	pred := Predict(p, ScaleCluster(4), InMemoryInput{}, ScaleDiskBW(4))
	if pred.PredictedSeconds >= pred.ActualSeconds/4 {
		t.Fatalf("combined prediction %v not < %v", pred.PredictedSeconds, pred.ActualSeconds/4)
	}
}

func TestFromMetrics(t *testing.T) {
	spec := &task.StageSpec{ID: 0, Name: "map", NumTasks: 1, DeserCPU: 1, OpCPU: 2.5, SerCPU: 0.5}
	jm := &task.JobMetrics{
		Name: "j",
		Stages: []*task.StageMetrics{{
			Spec: spec, Start: 0, End: 10,
			Tasks: []*task.TaskMetrics{{
				Monotasks: []task.MonotaskMetric{
					{Resource: task.CPUResource, Kind: task.KindCompute, Start: 0, End: 4},
					{Resource: task.DiskResource, Kind: task.KindInputRead, Start: 0, End: 2, Bytes: 200e6},
					{Resource: task.DiskResource, Kind: task.KindShuffleWrite, Start: 4, End: 5, Bytes: 100e6},
					{Resource: task.NetworkResource, Kind: task.KindNetFetch, Start: 0, End: 1, Bytes: 50e6},
				},
			}},
		}},
	}
	p := FromMetrics(jm, res)
	s := p.Stages[0]
	if !approx(s.CPUSeconds, 4) {
		t.Fatalf("CPUSeconds = %v, want 4", s.CPUSeconds)
	}
	if s.DiskBytes != 300e6 || s.InputReadBytes != 200e6 || s.NetBytes != 50e6 {
		t.Fatalf("bytes: disk %d input %d net %d", s.DiskBytes, s.InputReadBytes, s.NetBytes)
	}
	if !approx(s.InputDeserSeconds, 1) {
		t.Fatalf("InputDeserSeconds = %v, want 1 (stage reads input)", s.InputDeserSeconds)
	}
	if !approx(s.ActualSeconds, 10) {
		t.Fatalf("ActualSeconds = %v, want 10", s.ActualSeconds)
	}
}

func TestFromMetricsNoInputNoDeserRemoval(t *testing.T) {
	spec := &task.StageSpec{ID: 0, Name: "reduce", NumTasks: 1, ParentIDs: []int{0}, DeserCPU: 1, OpCPU: 2}
	jm := &task.JobMetrics{
		Name: "j",
		Stages: []*task.StageMetrics{{
			Spec: spec, Start: 0, End: 5,
			Tasks: []*task.TaskMetrics{{
				Monotasks: []task.MonotaskMetric{
					{Resource: task.CPUResource, Kind: task.KindCompute, Start: 0, End: 3},
				},
			}},
		}},
	}
	p := FromMetrics(jm, res)
	// Shuffle deserialization is NOT input deserialization (§6.3 removes
	// only the input share).
	if p.Stages[0].InputDeserSeconds != 0 {
		t.Fatalf("InputDeserSeconds = %v, want 0 for shuffle-input stage", p.Stages[0].InputDeserSeconds)
	}
}

func TestSlotPrediction(t *testing.T) {
	if got := SlotPrediction(100, 8, 16); !approx(got, 50) {
		t.Fatalf("SlotPrediction = %v, want 50", got)
	}
	// The Fig. 15 failure: removing a disk leaves slots unchanged.
	if got := SlotPrediction(100, 8, 8); !approx(got, 100) {
		t.Fatalf("SlotPrediction = %v, want 100 (no slot change)", got)
	}
	if got := SlotPrediction(100, 8, 0); !approx(got, 100) {
		t.Fatalf("SlotPrediction with bad slots = %v, want 100", got)
	}
}

func TestFromMeasured(t *testing.T) {
	stages := []MeasuredStage{{
		Name: "map",
		Usage: metrics.MeasuredUsage{
			CPUSeconds: 800, DiskReadBytes: 15e9, DiskWriteBytes: 5e9, NetBytes: 1e9,
		},
		ActualSeconds: 25,
	}}
	p := FromMeasured("j", stages, res)
	s := p.Stages[0]
	if s.DiskBytes != 20e9 || s.NetBytes != 1e9 || !approx(s.CPUSeconds, 800) {
		t.Fatalf("measured profile wrong: %+v", s)
	}
	// No deser split: InMemoryInput must be a no-op on measured profiles.
	pred := Predict(p, InMemoryInput{})
	if !approx(pred.PredictedSeconds, 25) {
		t.Fatalf("in-memory what-if on measured profile predicted %v, want 25 (unsupported)", pred.PredictedSeconds)
	}
}

func TestSlotShareAttribution(t *testing.T) {
	total := metrics.MeasuredUsage{CPUSeconds: 100, DiskReadBytes: 1000, DiskWriteBytes: 500, NetBytes: 200}
	parts := SlotShareAttribution(total, []float64{30, 10})
	if !approx(parts[0].CPUSeconds, 75) || !approx(parts[1].CPUSeconds, 25) {
		t.Fatalf("cpu split %v/%v, want 75/25", parts[0].CPUSeconds, parts[1].CPUSeconds)
	}
	if parts[0].DiskReadBytes+parts[1].DiskReadBytes != 1000 {
		t.Fatal("attribution does not conserve disk bytes")
	}
	zero := SlotShareAttribution(total, []float64{0, 0})
	if zero[0].CPUSeconds != 0 {
		t.Fatal("zero slot-seconds should attribute nothing")
	}
}

func TestWhatIfStrings(t *testing.T) {
	ws := []WhatIf{
		ScaleDiskBW(2), SetDiskBW(1e9), ScaleCluster(4), ScaleNetBW(10),
		InMemoryInput{}, InfinitelyFast(task.DiskResource),
	}
	for _, w := range ws {
		if w.String() == "" {
			t.Fatalf("%T has empty String()", w)
		}
	}
}

func TestIdealSeconds(t *testing.T) {
	p := mkProfile()
	// map model 20 + reduce model 20.
	if got := p.IdealSeconds(); !approx(got, 40) {
		t.Fatalf("IdealSeconds = %v, want 40", got)
	}
	if got := p.ActualSeconds(); !approx(got, 49) {
		t.Fatalf("ActualSeconds = %v, want 49", got)
	}
}
