package monospark

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/jobsched"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// Context owns a virtual cluster and creates Datasets on it. A Context is
// not safe for concurrent use; like a SparkContext, one goroutine drives it.
type Context struct {
	cfg     Config
	cluster *cluster.Cluster
	fs      *dfs.FS
	// opts is how every job on the Context runs: executor mode, driver
	// policy, and the fault injector, if any. The executors are built from
	// it once; each job's driver comes from run.DriverWith with it.
	opts     run.Options
	execs    []task.Executor
	sampler  *telemetry.Sampler
	jobSeq   int
	fileSeq  int
	datasets int
	// pendingAsync holds jobs queued by the Async actions until Await runs
	// them concurrently on one shared driver.
	pendingAsync []*AsyncAction
	// aborted poisons the Context after a cancelled run: the shared engine
	// still holds the aborted jobs' undrained events, so further runs on it
	// would interleave with stale state. A fresh Context is the recovery.
	aborted error
}

// New builds a Context over a fresh virtual cluster.
func New(cfg Config) (*Context, error) {
	cfg = cfg.withDefaults()
	if len(cfg.MachineSpeeds) > cfg.Machines {
		return nil, fmt.Errorf("monospark: %d machine speeds for %d machines", len(cfg.MachineSpeeds), cfg.Machines)
	}
	specs := make([]cluster.MachineSpec, cfg.Machines)
	for i := range specs {
		specs[i] = cfg.Hardware.machineSpec()
		if i < len(cfg.MachineSpeeds) && cfg.MachineSpeeds[i] > 0 {
			specs[i] = specs[i].Degraded(cfg.MachineSpeeds[i])
		}
	}
	c, err := cluster.NewHetero(specs)
	if err != nil {
		return nil, err
	}
	disks := len(cfg.Hardware.machineSpec().Disks)
	fs, err := dfs.New(dfs.Config{Machines: cfg.Machines, DisksPerMachine: disks})
	if err != nil {
		return nil, err
	}
	ctx := &Context{cfg: cfg, cluster: c, fs: fs, opts: run.Options{
		TasksPerMachine: cfg.TasksPerMachine,
		Sched:           jobsched.Config{Speculation: cfg.Speculation, Pools: cfg.Pools},
	}}
	switch cfg.Mode {
	case Spark:
		ctx.opts.Mode = run.Spark
	case SparkWithFlushedWrites:
		ctx.opts.Mode = run.SparkWriteThrough
	default:
		ctx.opts.Mode = run.Monotasks
	}
	if cfg.Chaos != nil {
		if err := ctx.initChaos(); err != nil {
			return nil, err
		}
	}
	ctx.execs = run.Executors(c, ctx.opts)
	if cfg.Telemetry != nil {
		// The sampler outlives per-job drivers; each job run binds the fresh
		// driver (runJob, Await), so one snapshot stream spans the session.
		ctx.sampler = telemetry.Start(c, nil, *cfg.Telemetry)
	}
	return ctx, nil
}

// Config returns the context's effective configuration.
func (c *Context) Config() Config { return c.cfg }

// TextFile registers lines as a file stored on the cluster's distributed
// filesystem, split into the given number of partitions (HDFS-style blocks
// spread across machines). Jobs that read it pay disk I/O and
// deserialization for its bytes.
func (c *Context) TextFile(name string, lines []string, partitions int) (*Dataset, error) {
	if partitions <= 0 {
		partitions = c.cluster.TotalCores()
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("monospark: text file %q has no lines", name)
	}
	if partitions > len(lines) {
		partitions = len(lines)
	}
	records := make([]any, len(lines))
	var bytes int64
	for i, l := range lines {
		records[i] = l
		bytes += int64(len(l)) + 1
	}
	// One block per partition, spread across machines, so map tasks align
	// with blocks the way Spark's HadoopRDD partitions do.
	sizes := make([]int64, partitions)
	locs := make([]int, partitions)
	per := bytes / int64(partitions)
	rem := bytes - per*int64(partitions)
	for i := range sizes {
		sizes[i] = per
		if int64(i) < rem {
			sizes[i]++
		}
		locs[i] = i % c.cluster.Size()
	}
	c.fileSeq++
	file, err := c.fs.CreateAt(fmt.Sprintf("/user/%s-%d", name, c.fileSeq), sizes, locs)
	if err != nil {
		return nil, err
	}
	ds := c.newDataset(partitions)
	ds.source = &sourceInfo{records: records, bytes: bytes, file: file}
	return ds, nil
}

// TextFileFromOS loads a real file from the local filesystem, splits it
// into lines, and registers it like TextFile. This is the bridge for using
// the library on actual data: the bytes are read once into memory and the
// simulated cluster charges I/O for their logical size.
func (c *Context) TextFileFromOS(path string, partitions int) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("monospark: %w", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return c.TextFile(filepath.Base(path), lines, partitions)
}

// Parallelize creates a Dataset from in-memory records: no disk reads and
// no input deserialization, like an RDD built from a driver collection.
func (c *Context) Parallelize(records []any, partitions int) (*Dataset, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("monospark: cannot parallelize zero records")
	}
	if partitions <= 0 {
		partitions = c.cluster.TotalCores()
	}
	if partitions > len(records) {
		partitions = len(records)
	}
	ds := c.newDataset(partitions)
	ds.source = &sourceInfo{records: records, inMemory: true, bytes: sizeOfRecords(records)}
	return ds, nil
}

func (c *Context) newDataset(partitions int) *Dataset {
	c.datasets++
	return &Dataset{ctx: c, id: c.datasets, partitions: partitions}
}

// TotalCores reports the cluster-wide core count.
func (c *Context) TotalCores() int { return c.cluster.TotalCores() }
