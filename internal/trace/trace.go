// Package trace exports monotask-level execution records in two formats:
// JSON Lines (one record per monotask, for ad-hoc analysis) and the Chrome
// trace-event format (load in chrome://tracing or Perfetto to see each
// machine's per-resource lanes light up — the visual version of Fig. 3b).
//
// Only monotasks runs can be traced: the pipelined executor cannot say when
// a task used which resource, which is the paper's point.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/task"
)

// Record is one monotask's execution, denormalized with its job context.
type Record struct {
	Job      string  `json:"job"`
	Stage    string  `json:"stage"`
	StageID  int     `json:"stageId"`
	TaskIdx  int     `json:"task"`
	Machine  int     `json:"machine"`
	Resource string  `json:"resource"`
	Kind     string  `json:"kind"`
	QueuedS  float64 `json:"queued"`
	StartS   float64 `json:"start"`
	EndS     float64 `json:"end"`
	Bytes    int64   `json:"bytes,omitempty"`
	DeserS   float64 `json:"deserSec,omitempty"`
	OpS      float64 `json:"opSec,omitempty"`
	SerS     float64 `json:"serSec,omitempty"`
}

// Records flattens a job's monotask metrics.
func Records(jm *task.JobMetrics) []Record {
	var out []Record
	for _, st := range jm.Stages {
		name := st.Spec.Name
		for _, tm := range st.Tasks {
			if tm == nil {
				continue
			}
			for _, m := range tm.Monotasks {
				r := Record{
					Job:      jm.Name,
					Stage:    name,
					StageID:  tm.StageID,
					TaskIdx:  tm.Index,
					Machine:  int(m.Machine),
					Resource: m.Resource.String(),
					Kind:     m.Kind.String(),
					QueuedS:  float64(m.Queued),
					StartS:   float64(m.Start),
					EndS:     float64(m.End),
					Bytes:    m.Bytes,
				}
				if m.Kind == task.KindCompute {
					r.DeserS, r.OpS, r.SerS = st.Spec.DeserCPU, st.Spec.OpCPU, st.Spec.SerCPU
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// WriteJSONL writes one JSON object per monotask.
func WriteJSONL(w io.Writer, jm *task.JobMetrics) error {
	enc := json.NewEncoder(w)
	for _, r := range Records(jm) {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// Mark is a point annotation on the trace timeline — typically a fault
// injection or recovery (internal/faults.Record converts to this shape).
// Machine -1 draws the mark at global scope instead of on one machine.
type Mark struct {
	At      float64 // virtual seconds
	Label   string
	Machine int
}

// chromeEvent is one event in the Chrome trace-event format: complete ("X")
// spans for monotasks, instant ("i") events for fault marks. Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  string         `json:"tid,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope: g, p, t
	Args map[string]any `json:"args,omitempty"`
}

// chromeMeta names processes/threads in the viewer.
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  string         `json:"tid,omitempty"`
	Args map[string]any `json:"args"`
}

// WriteChromeTrace writes the job as a Chrome trace: one process per
// machine, one thread lane per resource. Queue time is shown as a separate
// dimmer event preceding each monotask's service time.
func WriteChromeTrace(w io.Writer, jm *task.JobMetrics) error {
	return WriteChromeTraceEvents(w, jm, nil)
}

// WriteChromeTraceEvents is WriteChromeTrace plus instant-event marks:
// each Mark renders as an "i"-phase event (machine-scoped, or global when
// Machine is -1), so injected faults are visible in the same viewer as the
// monotask lanes they disrupted.
func WriteChromeTraceEvents(w io.Writer, jm *task.JobMetrics, marks []Mark) error {
	var events []any
	machines := map[int]bool{}
	for _, r := range Records(jm) {
		machines[r.Machine] = true
		lane := r.Resource
		label := fmt.Sprintf("%s s%d.t%d", r.Kind, r.StageID, r.TaskIdx)
		if wait := r.StartS - r.QueuedS; wait > 0 {
			events = append(events, chromeEvent{
				Name: label + " (queued)", Cat: "queue", Ph: "X",
				Ts: r.QueuedS * 1e6, Dur: wait * 1e6,
				Pid: r.Machine, Tid: lane,
			})
		}
		events = append(events, chromeEvent{
			Name: label, Cat: r.Kind, Ph: "X",
			Ts: r.StartS * 1e6, Dur: (r.EndS - r.StartS) * 1e6,
			Pid: r.Machine, Tid: lane,
			Args: map[string]any{"bytes": r.Bytes, "stage": r.Stage},
		})
	}
	for _, mk := range marks {
		ev := chromeEvent{
			Name: mk.Label, Cat: "fault", Ph: "i",
			Ts: mk.At * 1e6,
		}
		if mk.Machine >= 0 {
			ev.Pid = mk.Machine
			ev.Tid = "faults"
			ev.S = "p"
			machines[mk.Machine] = true
		} else {
			ev.S = "g"
		}
		events = append(events, ev)
	}
	for m := range machines {
		events = append(events, chromeMeta{
			Name: "process_name", Ph: "M", Pid: m,
			Args: map[string]any{"name": fmt.Sprintf("machine %d", m)},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
