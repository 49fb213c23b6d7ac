package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/task"
)

func sampleMetrics() *task.JobMetrics {
	spec := &task.StageSpec{ID: 0, Name: "map", NumTasks: 2, DeserCPU: 1, OpCPU: 1.5, SerCPU: 0.5}
	return &task.JobMetrics{
		Name: "job1", Start: 0, End: 10,
		Stages: []*task.StageMetrics{{
			Spec: spec, Start: 0, End: 10,
			Tasks: []*task.TaskMetrics{
				{StageID: 0, Index: 0, Machine: 0, Start: 0, End: 5,
					Monotasks: []task.MonotaskMetric{
						{Resource: task.DiskResource, Kind: task.KindInputRead, Machine: 0,
							Queued: 0, Start: 0.5, End: 2, Bytes: 1000},
						{Resource: task.CPUResource, Kind: task.KindCompute, Machine: 0,
							Queued: 2, Start: 2, End: 5},
					}},
				nil, // a task that never ran must be skipped, not crash
			},
		}},
	}
}

func TestRecordsFlatten(t *testing.T) {
	rs := Records(sampleMetrics())
	if len(rs) != 2 {
		t.Fatalf("got %d records, want 2", len(rs))
	}
	r := rs[0]
	if r.Job != "job1" || r.Stage != "map" || r.Resource != "disk" || r.Kind != "input-read" {
		t.Fatalf("record wrong: %+v", r)
	}
	if r.Bytes != 1000 || r.StartS != 0.5 || r.EndS != 2 {
		t.Fatalf("record values wrong: %+v", r)
	}
	if rs[1].DeserS != 1 || rs[1].OpS != 1.5 || rs[1].SerS != 0.5 {
		t.Fatalf("compute split missing: %+v", rs[1])
	}
}

func TestWriteJSONLIsValidPerLine(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d invalid JSON: %v", lines, err)
		}
	}
	if lines != 2 {
		t.Fatalf("got %d lines, want 2", lines)
	}
}

func TestWriteChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var complete, meta, queued int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if name, _ := ev["name"].(string); strings.Contains(name, "queued") {
				queued++
			}
			if ev["ts"] == nil || ev["pid"] == nil || ev["tid"] == nil {
				t.Fatalf("event missing fields: %v", ev)
			}
		case "M":
			meta++
		}
	}
	// Two monotasks, one with a queue wait, plus one process-name metadata.
	if complete != 3 || queued != 1 || meta != 1 {
		t.Fatalf("events: complete=%d queued=%d meta=%d; want 3/1/1", complete, queued, meta)
	}
}

func TestTraceTimesMicroseconds(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if strings.HasPrefix(ev.Name, "input-read") && !strings.Contains(ev.Name, "queued") {
			// 0.5 s → 500000 µs, duration 1.5 s → 1.5e6 µs.
			if ev.Ts != 500000 || ev.Dur != 1.5e6 {
				t.Fatalf("input-read ts/dur = %v/%v, want 5e5/1.5e6", ev.Ts, ev.Dur)
			}
			return
		}
	}
	t.Fatal("input-read event not found")
}
