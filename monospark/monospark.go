// Package monospark is a Spark-like data analytics framework whose workers
// execute jobs as monotasks — units of work that each use exactly one of
// CPU, disk, or network — the architecture of "Monotasks: Architecting for
// Performance Clarity in Data Analytics Frameworks" (SOSP 2017).
//
// A Context owns a virtual cluster. Datasets are built with the familiar
// transformations (Map, FlatMap, Filter, ReduceByKey, SortByKey, Join) and
// evaluated by actions (Collect, Count, SaveAsTextFile). The data plane is
// real — records genuinely flow through your functions — while time is
// virtual: a deterministic simulator prices every disk read, network fetch,
// and compute step on the configured hardware, so each job returns both its
// results and a full per-monotask performance profile.
//
// Because resource use is explicitly separated, a finished job can answer
// what-if questions directly (see JobRun.Predict and the perf package):
//
//	ctx, _ := monospark.New(monospark.Config{Machines: 4})
//	lines := ctx.TextFile("corpus", corpusLines, 64)
//	counts := lines.
//		FlatMap(func(v any) []any { ... }).
//		MapToPair(func(v any) monospark.Pair { ... }).
//		ReduceByKey(func(a, b any) any { ... })
//	result, run, _ := counts.Collect()
//	faster := run.Predict(perf.ClusterSize(4), perf.InMemoryInput())
package monospark

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/units"
)

// Mode selects the execution architecture.
type Mode int

const (
	// Monotasks decomposes each task into single-resource monotasks with
	// per-resource schedulers — the paper's architecture, and the only mode
	// that produces full per-monotask metrics.
	Monotasks Mode = iota
	// Spark emulates Spark 1.3: slot scheduling, fine-grained pipelining
	// inside each task, buffer-cache writes.
	Spark
	// SparkWithFlushedWrites is Spark with the OS forced to write dirty
	// data to disk promptly.
	SparkWithFlushedWrites
)

// String names the executor mode.
func (m Mode) String() string {
	switch m {
	case Monotasks:
		return "monotasks"
	case Spark:
		return "spark"
	case SparkWithFlushedWrites:
		return "spark-flushed"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Hardware describes one worker machine. The zero value selects the paper's
// HDD instances (8 cores, 2 HDDs, 1 Gb/s network, 60 GB memory).
type Hardware struct {
	Cores    int
	HDDs     int
	SSDs     int
	NetGbps  float64
	MemoryGB int
}

func (h Hardware) withDefaults() Hardware {
	if h.Cores <= 0 {
		h.Cores = 8
	}
	if h.HDDs <= 0 && h.SSDs <= 0 {
		h.HDDs = 2
	}
	if h.NetGbps <= 0 {
		h.NetGbps = 1
	}
	if h.MemoryGB <= 0 {
		h.MemoryGB = 60
	}
	return h
}

// machineSpec converts to the internal cluster description.
func (h Hardware) machineSpec() cluster.MachineSpec {
	h = h.withDefaults()
	spec := cluster.MachineSpec{
		Cores:    h.Cores,
		NetBW:    units.Gbps(h.NetGbps),
		MemBytes: int64(h.MemoryGB) * units.GB,
	}
	for i := 0; i < h.HDDs; i++ {
		spec.Disks = append(spec.Disks, resource.DefaultHDD())
	}
	for i := 0; i < h.SSDs; i++ {
		spec.Disks = append(spec.Disks, resource.DefaultSSD())
	}
	return spec
}

// Config parameterizes a Context.
type Config struct {
	// Machines is the worker count; default 4.
	Machines int
	// Hardware is the per-machine shape; zero value = paper HDD workers.
	Hardware Hardware
	// Mode selects the execution architecture; default Monotasks.
	Mode Mode
	// TasksPerMachine overrides the Spark modes' slot count (ignored by
	// Monotasks, which configures concurrency per resource — §7).
	TasksPerMachine int
	// CPUCostPerRecord is the virtual compute cost charged per record per
	// transformation, in seconds. Default 500 ns — the Spark-1.3-era data
	// plane the paper measures against. It prices simulated time only; your
	// functions' real Go runtime is irrelevant.
	CPUCostPerRecord float64
	// Speculation launches backup attempts for straggling tasks (Spark's
	// spark.speculation); useful on heterogeneous clusters.
	Speculation bool
	// MachineSpeeds optionally assigns per-machine speed factors (1 = full
	// speed); a 0.5 entry models a degraded straggler node. Missing entries
	// default to 1. Must not exceed Machines in length.
	MachineSpeeds []float64
	// Chaos, when set, enables deterministic fault injection (crashes,
	// recoveries, degraded devices, transient task failures) for every job
	// run on the Context. See ChaosConfig.
	Chaos *ChaosConfig
	// Pools declares named scheduling pools for concurrent jobs submitted
	// with the Async actions (CollectAsync + Context.Await): each pool gets
	// executor slots in proportion to its weight while it has runnable work.
	// A fair-share pool named DefaultPool always exists.
	Pools []PoolConfig
	// Telemetry, when set, attaches a live in-run sampler to the Context's
	// cluster: periodic snapshots of utilization, scheduler state, and
	// per-job attribution, readable via Context.Telemetry while jobs run.
	Telemetry *TelemetryConfig
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 4
	}
	c.Hardware = c.Hardware.withDefaults()
	if c.CPUCostPerRecord <= 0 {
		c.CPUCostPerRecord = 500e-9
	}
	return c
}

// Pair is a keyed record, the currency of ReduceByKey, SortByKey, and Join.
type Pair struct {
	Key   string
	Value any
}

// String renders "key\tvalue", the format SaveAsTextFile writes.
func (p Pair) String() string { return fmt.Sprintf("%s\t%v", p.Key, p.Value) }
