// Package task defines the vocabulary shared by the driver and the two
// executors: job/stage/task specifications with per-resource cost models,
// the resolved per-task work descriptions, and the metric records that the
// performance model consumes.
//
// A job is a DAG of stages; a stage is a set of identical parallel
// multitasks (the paper's term for today's tasks, §3). Each multitask reads
// input (an HDFS block, cached memory, or shuffled data from parent stages),
// computes (deserialize → operate → serialize), and writes output (shuffle
// data to local disk, an HDFS block, or a cached in-memory partition).
package task

import (
	"fmt"

	"repro/internal/dfs"
	"repro/internal/sim"
)

// Resource identifies one of the four resources a monotask can use. It is
// an int8 so that a MonotaskMetric stays at 40 bytes.
type Resource int8

const (
	// CPUResource is a processor core.
	CPUResource Resource = iota
	// DiskResource is a disk drive (HDD or SSD).
	DiskResource
	// NetworkResource is the machine's NIC.
	NetworkResource
	// MemoryResource is the machine's memory-bandwidth system. Monotasks
	// never run on it alone; compute monotasks with a memory demand hold a
	// core while their data movement shares the machine's bandwidth ceiling.
	MemoryResource
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case CPUResource:
		return "cpu"
	case DiskResource:
		return "disk"
	case NetworkResource:
		return "network"
	case MemoryResource:
		return "memory"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// Kind describes what a monotask is for. The performance model uses kinds to
// answer what-if questions — e.g. "store input in memory" removes
// InputRead disk time and the deserialization share of compute time (§6.3).
// Like Resource it is an int8, to keep MonotaskMetric small; the -1 that
// StageMetrics.MonotaskSeconds and MonotaskBytes take for "all kinds" fits.
type Kind int8

const (
	// KindCompute is a CPU monotask.
	KindCompute Kind = iota
	// KindInputRead reads job input from a local disk.
	KindInputRead
	// KindShuffleWrite spills a map task's shuffle output to disk.
	KindShuffleWrite
	// KindShuffleServeRead is the disk read on the serving side of a
	// shuffle fetch.
	KindShuffleServeRead
	// KindOutputWrite writes a job's final output to disk.
	KindOutputWrite
	// KindNetFetch fetches remote shuffle data over the network.
	KindNetFetch
	// KindMemSpill stages task buffer bytes that exceeded the machine's
	// memory capacity out to a local disk (memory-pressure spill).
	KindMemSpill
)

// String names the monotask kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindInputRead:
		return "input-read"
	case KindShuffleWrite:
		return "shuffle-write"
	case KindShuffleServeRead:
		return "shuffle-serve-read"
	case KindOutputWrite:
		return "output-write"
	case KindNetFetch:
		return "net-fetch"
	case KindMemSpill:
		return "mem-spill"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// StageSpec describes one stage's identical parallel multitasks. Costs are
// per task.
type StageSpec struct {
	ID       int
	Name     string
	NumTasks int

	// ParentIDs lists stages whose shuffle output this stage reads. Empty
	// for input stages.
	ParentIDs []int

	// InputBlocks maps task i to the HDFS block it reads (len == NumTasks).
	// Nil when the stage reads shuffled or in-memory input.
	InputBlocks []*dfs.Block

	// InputFromMem marks input cached in memory, deserialized: no disk read
	// and no deserialization CPU. InputBytesPerTask records the logical size.
	InputFromMem      bool
	InputBytesPerTask int64

	// CPU cost per task in core-seconds, split so the model can subtract the
	// deserialization share for in-memory what-ifs (§6.3).
	DeserCPU float64
	OpCPU    float64
	SerCPU   float64

	// ShuffleOutBytes is written by each task for later stages to fetch.
	// ShuffleInMemory keeps it in memory (the ML workload, §5.2), otherwise
	// it goes to local disk.
	ShuffleOutBytes int64
	ShuffleInMemory bool

	// OutputBytes is each task's final output. OutputToMem caches it
	// (e.g. building an in-memory dataset) instead of writing to HDFS via
	// the local disk.
	OutputBytes int64
	OutputToMem bool

	// Memory demand per task, honoured only on machines whose spec enables
	// the memory model (both zero otherwise — the default keeps memory out
	// of the simulation entirely). MemBytesPerTask is the data the compute
	// monotask moves through the memory system; MemBWPerTask caps the rate
	// one task can drive (<= 0 for uncapped), modelling per-core limits.
	MemBytesPerTask int64
	MemBWPerTask    float64
}

// HasShuffleInput reports whether tasks read shuffled data.
func (s *StageSpec) HasShuffleInput() bool { return len(s.ParentIDs) > 0 }

// TotalOpCPU returns the stage's total non-serde compute demand.
func (s *StageSpec) TotalOpCPU() float64 {
	return float64(s.NumTasks) * s.OpCPU
}

// TotalCPU returns the stage's total compute demand in core-seconds.
func (s *StageSpec) TotalCPU() float64 {
	return float64(s.NumTasks) * (s.DeserCPU + s.OpCPU + s.SerCPU)
}

// Validate reports structural errors. Safe on a nil receiver — a nil stage
// is an input error to report, not an invariant to panic on.
func (s *StageSpec) Validate() error {
	if s == nil {
		return fmt.Errorf("task: nil stage spec")
	}
	if s.NumTasks <= 0 {
		return fmt.Errorf("task: stage %q needs tasks, got %d", s.Name, s.NumTasks)
	}
	if s.InputBlocks != nil && len(s.InputBlocks) != s.NumTasks {
		return fmt.Errorf("task: stage %q has %d blocks for %d tasks", s.Name, len(s.InputBlocks), s.NumTasks)
	}
	if s.InputBlocks != nil && s.HasShuffleInput() {
		return fmt.Errorf("task: stage %q has both block and shuffle input", s.Name)
	}
	if s.DeserCPU < 0 || s.OpCPU < 0 || s.SerCPU < 0 {
		return fmt.Errorf("task: stage %q has negative CPU cost", s.Name)
	}
	if s.ShuffleOutBytes < 0 || s.OutputBytes < 0 {
		return fmt.Errorf("task: stage %q has negative output bytes", s.Name)
	}
	if s.MemBytesPerTask < 0 {
		return fmt.Errorf("task: stage %q has negative memory bytes", s.Name)
	}
	return nil
}

// JobSpec is a topologically ordered DAG of stages.
type JobSpec struct {
	Name   string
	Stages []*StageSpec
}

// Validate checks the whole job: stage IDs must be dense indices and
// parents must precede children (topological order). Safe on a nil receiver:
// specs arrive from user-facing APIs (monospark, the what-if service), so a
// nil or malformed spec must surface as an error, never a panic.
func (j *JobSpec) Validate() error {
	if j == nil {
		return fmt.Errorf("task: nil job spec")
	}
	if len(j.Stages) == 0 {
		return fmt.Errorf("task: job %q has no stages", j.Name)
	}
	for i, s := range j.Stages {
		if s.ID != i {
			return fmt.Errorf("task: job %q stage %d has ID %d", j.Name, i, s.ID)
		}
		if err := s.Validate(); err != nil {
			return err
		}
		for _, p := range s.ParentIDs {
			if p < 0 || p >= i {
				return fmt.Errorf("task: job %q stage %d depends on stage %d (not topological)", j.Name, i, p)
			}
		}
	}
	return nil
}

// Fetch is one shuffle fetch a task must perform: bytes residing on a source
// machine, possibly still in memory there (in-memory shuffle). FromDisk is
// honoured only for remote HDFS block reads (Task.RemoteRead), where the
// block's disk is known; shuffle serve reads let the serving machine's disk
// scheduler choose, so FromDisk is ignored for them.
type Fetch struct {
	From     int
	Bytes    int64
	FromMem  bool
	FromDisk int
	// Stage is the parent stage whose shuffle output is being fetched; the
	// pipelined executor keys buffer-cache lookups on it.
	Stage int
}

// Task is a multitask resolved for execution: placement plus concrete I/O.
type Task struct {
	Stage   *StageSpec
	Index   int
	Machine int

	// Input: at most one of the following is set.
	DiskReadBytes int64   // local HDFS block read ...
	DiskReadDisk  int     // ... from this local disk index
	RemoteRead    *Fetch  // non-local HDFS block: remote disk read + transfer
	MemReadBytes  int64   // cached input
	Fetches       []Fetch // shuffle input, one per source machine
}

// InputBytes returns the task's total input volume.
func (t *Task) InputBytes() int64 {
	b := t.DiskReadBytes + t.MemReadBytes
	if t.RemoteRead != nil {
		b += t.RemoteRead.Bytes
	}
	for _, f := range t.Fetches {
		b += f.Bytes
	}
	return b
}

// MonotaskMetric records one monotask's execution. The pipelined executor
// cannot produce these (that inability is the paper's thesis); it reports
// only task spans.
//
// A run keeps one record per monotask, so the record holds only what
// differs between monotasks and packs into 40 bytes. A compute monotask's
// cost split is its stage's (StageSpec.DeserCPU, OpCPU, SerCPU), and its
// memory traffic is TaskMetrics.MemBytes.
type MonotaskMetric struct {
	Resource Resource
	Kind     Kind
	Machine  int32
	Queued   sim.Time // when the monotask became ready
	Start    sim.Time // when its resource began serving it
	End      sim.Time
	Bytes    int64
}

// Duration is the service time (excludes queueing).
func (m *MonotaskMetric) Duration() sim.Duration { return m.End - m.Start }

// QueueDelay is the time spent waiting for the resource.
func (m *MonotaskMetric) QueueDelay() sim.Duration { return m.Start - m.Queued }

// TaskMetrics records one multitask's execution — or its failure: an
// attempt that an injected transient fault (disk I/O error, flaky shuffle
// fetch) fails is reported with Failed and a reason, and the driver charges
// it against the task's retry budget and the machine's exclusion counter.
type TaskMetrics struct {
	StageID   int
	Index     int
	Machine   int
	Start     sim.Time
	End       sim.Time
	Monotasks []MonotaskMetric
	// MemBytes records the bytes the task's compute monotask moved through
	// the machine's memory system (zero on memoryless machines).
	MemBytes int64

	Failed     bool
	FailReason string
}

// Duration is the task's wall-clock span.
func (t *TaskMetrics) Duration() sim.Duration { return t.End - t.Start }

// NewTaskMetrics returns a metrics record with the Monotasks slice
// preallocated to exactly monotaskCap entries. Executors that know a task's
// decomposition up front (the monotasks worker derives it from its stage
// template) use this so metric collection never re-grows the slice.
func NewTaskMetrics(stageID, index, machine int, start sim.Time, monotaskCap int) *TaskMetrics {
	tm := &TaskMetrics{StageID: stageID, Index: index, Machine: machine, Start: start}
	if monotaskCap > 0 {
		tm.Monotasks = make([]MonotaskMetric, 0, monotaskCap)
	}
	return tm
}

// StageMetrics aggregates a stage run.
type StageMetrics struct {
	Spec  *StageSpec
	Start sim.Time
	End   sim.Time
	Tasks []*TaskMetrics
}

// Duration is the stage's wall-clock span.
func (s *StageMetrics) Duration() sim.Duration { return s.End - s.Start }

// MonotaskSeconds sums monotask service time on a resource, optionally
// filtered by kind (pass kind = -1 for all kinds).
func (s *StageMetrics) MonotaskSeconds(r Resource, kind Kind) float64 {
	var sum float64
	for _, t := range s.Tasks {
		if t == nil { // task slot not finished (aborted or mid-run stage)
			continue
		}
		for _, m := range t.Monotasks {
			if m.Resource != r {
				continue
			}
			if kind >= 0 && m.Kind != kind {
				continue
			}
			sum += float64(m.Duration())
		}
	}
	return sum
}

// MonotaskBytes sums bytes moved by monotasks on a resource/kind
// (kind = -1 for all kinds).
func (s *StageMetrics) MonotaskBytes(r Resource, kind Kind) int64 {
	var sum int64
	for _, t := range s.Tasks {
		if t == nil {
			continue
		}
		for _, m := range t.Monotasks {
			if m.Resource != r {
				continue
			}
			if kind >= 0 && m.Kind != kind {
				continue
			}
			sum += m.Bytes
		}
	}
	return sum
}

// MonotaskMemBytes sums the memory-system traffic recorded by the stage's
// compute monotasks. Kept separate from MonotaskBytes: a compute monotask's
// Bytes field stays zero (it moves no I/O bytes), while its task's MemBytes
// records the memory traffic the fourth-resource model charged it.
func (s *StageMetrics) MonotaskMemBytes() int64 {
	var sum int64
	for _, t := range s.Tasks {
		if t == nil {
			continue
		}
		sum += t.MemBytes
	}
	return sum
}

// JobMetrics aggregates a job run.
type JobMetrics struct {
	Name   string
	Start  sim.Time
	End    sim.Time
	Stages []*StageMetrics
}

// Duration is the job's wall-clock runtime in virtual seconds.
func (j *JobMetrics) Duration() sim.Duration { return j.End - j.Start }
