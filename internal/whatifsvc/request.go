// Package whatifsvc is the overload-safe what-if service: it answers posted
// performance questions ("how long would this workload take on that cluster,
// and what would change if the disks were twice as fast?") by running the
// monotask simulator and the §6 performance model on a per-request virtual
// cluster. The package is engineered robustness-first: strict bounded request
// decoding, fair-share admission with backpressure, per-request
// deadlines riding the engine's cooperative-cancellation check, panic
// isolation per session, and whole-run memoization keyed by a structural
// fingerprint of the question.
package whatifsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Limits bound every numeric knob a request can turn. They exist so one
// tenant cannot ask for a simulation large enough to starve everyone else;
// oversized requests are rejected at validation, before admission.
const (
	MaxMachines     = 64
	MaxWorkloadMB   = 64 << 10 // 64 GB of simulated input
	MaxJobs         = 8
	MaxTasksPerWave = 4096
	MaxWhatIfs      = 16
	// MaxBodyBytes caps the request body read; DecodeRequest refuses larger.
	MaxBodyBytes = 64 << 10
)

// WorkloadSpec picks and parameterizes one of the paper's workloads. Zero
// fields take the workload's defaults (documented in internal/workloads).
type WorkloadSpec struct {
	// Kind is "sort", "wordcount", or "readcompute".
	Kind string `json:"kind"`
	// TotalMB is the simulated input size in megabytes.
	TotalMB int64 `json:"total_mb"`
	// Jobs is how many identical copies run concurrently (default 1); with
	// more than one, the response's attribution ranks their contention.
	Jobs int `json:"jobs,omitempty"`

	// Sort knobs.
	ValuesPerKey  int  `json:"values_per_key,omitempty"`
	MapTasks      int  `json:"map_tasks,omitempty"`
	ReduceTasks   int  `json:"reduce_tasks,omitempty"`
	InMemoryInput bool `json:"in_memory_input,omitempty"`

	// WordCount knobs.
	ShuffleFraction float64 `json:"shuffle_fraction,omitempty"`
	OutputFraction  float64 `json:"output_fraction,omitempty"`

	// ReadCompute knobs.
	NumTasks   int     `json:"num_tasks,omitempty"`
	CPUPerByte float64 `json:"cpu_per_byte,omitempty"`
}

// ClusterSpec describes the virtual cluster the question runs on.
type ClusterSpec struct {
	Machines int `json:"machines"`
	// Hardware is "hdd" (the paper's m2.4xlarge), "ssd", or "ssd2" (one or
	// two SSDs per machine). Default "hdd".
	Hardware string `json:"hardware,omitempty"`
	// Degraded slows DegradedMachines of the cluster to this speed factor
	// (0 < f < 1) — the straggler knob.
	Degraded         float64 `json:"degraded,omitempty"`
	DegradedMachines int     `json:"degraded_machines,omitempty"`
}

// WhatIfSpec is one hypothetical change to evaluate against the run.
type WhatIfSpec struct {
	// Kind is "scale_disk", "set_disk_bw", "scale_cluster", "scale_net",
	// "in_memory_input", or "infinitely_fast".
	Kind string `json:"kind"`
	// Factor parameterizes the scaling kinds (set_disk_bw reads it as
	// bytes/second).
	Factor float64 `json:"factor,omitempty"`
	// Resource names the resource for "infinitely_fast": "cpu", "disk", or
	// "network".
	Resource string `json:"resource,omitempty"`
}

// Request is one posted what-if question.
type Request struct {
	// Tenant names the requester for fair-share admission (default "anon").
	Tenant   string       `json:"tenant,omitempty"`
	Workload WorkloadSpec `json:"workload"`
	Cluster  ClusterSpec  `json:"cluster"`
	WhatIfs  []WhatIfSpec `json:"whatifs,omitempty"`
	// DeadlineMillis caps this request's wall-clock budget. The server clamps
	// it to its configured ceiling; zero means "the server's default".
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// VirtualDeadlineSeconds bounds the simulation in virtual time: the run
	// aborts cleanly once the simulated clock passes it, and the response
	// reports the partial window with aborted=true. Zero means unbounded.
	VirtualDeadlineSeconds float64 `json:"virtual_deadline_s,omitempty"`
	// Telemetry asks for a summary of live utilization snapshots.
	Telemetry bool `json:"telemetry,omitempty"`
}

// ChaosKind is the workload kind that deliberately panics inside the
// session. It is accepted only when the service runs with Config.Chaos and
// exists to prove panic isolation under test and in staging.
const ChaosKind = "chaos-panic"

// DecodeRequest reads one JSON request from r, strictly: unknown fields,
// trailing data, and bodies over MaxBodyBytes are all errors. It never
// panics on any input.
func DecodeRequest(r io.Reader) (*Request, error) {
	lr := io.LimitReader(r, MaxBodyBytes+1)
	data, err := io.ReadAll(lr)
	if err != nil {
		return nil, fmt.Errorf("whatifsvc: reading request: %w", err)
	}
	if int64(len(data)) > MaxBodyBytes {
		return nil, fmt.Errorf("whatifsvc: request body over %d bytes", MaxBodyBytes)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("whatifsvc: malformed request: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("whatifsvc: trailing data after request object")
	}
	return &req, nil
}

// Validate bounds-checks the request. chaosAllowed admits the deliberately
// panicking ChaosKind workload (test/staging only).
func (r *Request) Validate(chaosAllowed bool) error {
	w := &r.Workload
	switch w.Kind {
	case "sort", "wordcount", "readcompute":
	case ChaosKind:
		if !chaosAllowed {
			return fmt.Errorf("whatifsvc: workload kind %q not enabled on this server", w.Kind)
		}
		return nil
	default:
		return fmt.Errorf("whatifsvc: unknown workload kind %q (want sort, wordcount, or readcompute)", w.Kind)
	}
	if w.TotalMB <= 0 || w.TotalMB > MaxWorkloadMB {
		return fmt.Errorf("whatifsvc: total_mb %d outside (0, %d]", w.TotalMB, MaxWorkloadMB)
	}
	if w.Jobs < 0 || w.Jobs > MaxJobs {
		return fmt.Errorf("whatifsvc: jobs %d outside [0, %d]", w.Jobs, MaxJobs)
	}
	// Fields are checked in declaration order, never by ranging over a map,
	// so a request with several out-of-range fields gets the same error on
	// every call.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"values_per_key", w.ValuesPerKey},
		{"map_tasks", w.MapTasks},
		{"reduce_tasks", w.ReduceTasks},
	} {
		if f.v < 0 || f.v > MaxTasksPerWave {
			return fmt.Errorf("whatifsvc: %s %d outside [0, %d]", f.name, f.v, MaxTasksPerWave)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"shuffle_fraction", w.ShuffleFraction},
		{"output_fraction", w.OutputFraction},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("whatifsvc: %s %v outside [0, 1]", f.name, f.v)
		}
	}
	if w.NumTasks < 0 || w.NumTasks > MaxTasksPerWave {
		return fmt.Errorf("whatifsvc: num_tasks %d outside [0, %d]", w.NumTasks, MaxTasksPerWave)
	}
	if w.CPUPerByte < 0 || w.CPUPerByte > 1e-3 {
		return fmt.Errorf("whatifsvc: cpu_per_byte %v outside [0, 1e-3]", w.CPUPerByte)
	}

	c := &r.Cluster
	if c.Machines <= 0 || c.Machines > MaxMachines {
		return fmt.Errorf("whatifsvc: machines %d outside (0, %d]", c.Machines, MaxMachines)
	}
	switch c.Hardware {
	case "", "hdd", "ssd", "ssd2":
	default:
		return fmt.Errorf("whatifsvc: unknown hardware %q (want hdd, ssd, or ssd2)", c.Hardware)
	}
	if c.Degraded < 0 || c.Degraded >= 1 {
		if c.Degraded != 0 {
			return fmt.Errorf("whatifsvc: degraded factor %v outside (0, 1)", c.Degraded)
		}
	}
	if c.DegradedMachines < 0 || c.DegradedMachines > c.Machines {
		return fmt.Errorf("whatifsvc: degraded_machines %d outside [0, machines]", c.DegradedMachines)
	}
	if (c.Degraded > 0) != (c.DegradedMachines > 0) {
		return fmt.Errorf("whatifsvc: degraded and degraded_machines must be set together")
	}

	if len(r.WhatIfs) > MaxWhatIfs {
		return fmt.Errorf("whatifsvc: %d what-ifs over the limit %d", len(r.WhatIfs), MaxWhatIfs)
	}
	for i, wi := range r.WhatIfs {
		switch wi.Kind {
		case "scale_disk", "scale_cluster", "scale_net":
			if wi.Factor <= 0 || wi.Factor > 1024 {
				return fmt.Errorf("whatifsvc: whatif %d: factor %v outside (0, 1024]", i, wi.Factor)
			}
		case "set_disk_bw":
			if wi.Factor <= 0 || wi.Factor > 1e12 {
				return fmt.Errorf("whatifsvc: whatif %d: disk bandwidth %v outside (0, 1e12] B/s", i, wi.Factor)
			}
		case "in_memory_input":
		case "infinitely_fast":
			switch wi.Resource {
			case "cpu", "disk", "network":
			default:
				return fmt.Errorf("whatifsvc: whatif %d: unknown resource %q", i, wi.Resource)
			}
		default:
			return fmt.Errorf("whatifsvc: whatif %d: unknown kind %q", i, wi.Kind)
		}
	}

	if r.DeadlineMillis < 0 {
		return fmt.Errorf("whatifsvc: deadline_ms %d is negative", r.DeadlineMillis)
	}
	if r.VirtualDeadlineSeconds < 0 {
		return fmt.Errorf("whatifsvc: virtual_deadline_s %v is negative", r.VirtualDeadlineSeconds)
	}
	return nil
}

// Fingerprint canonicalizes everything that determines the response body —
// workload, cluster, what-ifs, the virtual deadline, and the telemetry flag
// — into a stable hash. Tenant and the wall-clock budget are deliberately
// excluded: they shape admission, not results, so requests differing only
// there share a memo entry. The simulator is deterministic (no seed), which
// is what makes whole-run memoization sound: equal fingerprints imply
// byte-identical bodies.
func (r *Request) Fingerprint() string {
	var b []byte
	appendInt := func(v int64) {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, '|')
	}
	appendFloat := func(v float64) {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '|')
	}
	appendStr := func(s string) {
		appendInt(int64(len(s)))
		b = append(b, s...)
		b = append(b, '|')
	}
	w := &r.Workload
	appendStr(w.Kind)
	appendInt(w.TotalMB)
	appendInt(int64(w.Jobs))
	appendInt(int64(w.ValuesPerKey))
	appendInt(int64(w.MapTasks))
	appendInt(int64(w.ReduceTasks))
	if w.InMemoryInput {
		appendInt(1)
	} else {
		appendInt(0)
	}
	appendFloat(w.ShuffleFraction)
	appendFloat(w.OutputFraction)
	appendInt(int64(w.NumTasks))
	appendFloat(w.CPUPerByte)
	c := &r.Cluster
	appendInt(int64(c.Machines))
	appendStr(c.Hardware)
	appendFloat(c.Degraded)
	appendInt(int64(c.DegradedMachines))
	appendInt(int64(len(r.WhatIfs)))
	for _, wi := range r.WhatIfs {
		appendStr(wi.Kind)
		appendFloat(wi.Factor)
		appendStr(wi.Resource)
	}
	appendFloat(r.VirtualDeadlineSeconds)
	if r.Telemetry {
		appendInt(1)
	} else {
		appendInt(0)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
