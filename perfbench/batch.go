package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/faults"
	"repro/internal/jobsched"
	"repro/internal/model"
	"repro/internal/pipeexec"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/workloads"
)

// batchRun is one batch workload instance, materialized and ready to run: a
// fresh cluster, its DFS inputs, the job specs with their arrival times and
// pools, and (for jobstream) a fault injector. A cluster runs once; every
// measured run builds its own.
type batchRun struct {
	c    *cluster.Cluster
	fs   *dfs.FS
	o    run.Options
	subs []run.Submission
	// open marks an open-loop arrival schedule: jobs are submitted from
	// engine callbacks at their arrival times, and inj (when set) is bound to
	// the driver so task kills reach it.
	open bool
	inj  *faults.Injector
}

// batchWorkload generates a batch run from a seed. The same seed always
// yields the same specs, arrivals and fault plan. A run of the benchmark
// cycles through variants inputs (see variantSeed), so its medians cover
// several draws of the workload rather than one.
type batchWorkload struct {
	name     string
	variants int
	build    func(seed int64) (*batchRun, error)
}

// The §5.2 sort: 20 m2.4xlarge workers (8 cores, 2 HDDs, 1 Gb/s), 8 map and
// 8 reduce tasks per core, about 200 GB of 10-value records. The seed moves
// the input size within the 5% below 200 GB, so every seed sorts a different
// file. The range stops at 200 GB because above it each pipelined task's
// 160 MB of input spills into a 21st 8 MB chunk and sort-spark's event count
// jumps from about 143k to 237k.
const (
	sortMachines = 20
	sortBytes    = 200 * units.GB
)

func sortWorkload(name string, mode run.Mode) batchWorkload {
	return batchWorkload{name: name, variants: 1, build: func(seed int64) (*batchRun, error) {
		rng := rand.New(rand.NewSource(seed))
		bytes := int64(float64(sortBytes)*(0.95+0.05*rng.Float64())) / units.MB * units.MB
		return buildSort(sortMachines, bytes, mode)
	}}
}

func buildSort(machines int, bytes int64, mode run.Mode) (*batchRun, error) {
	c, err := cluster.New(machines, cluster.M2_4XLarge())
	if err != nil {
		return nil, err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return nil, err
	}
	spec, err := workloads.Sort{Name: "sort", TotalBytes: bytes, ValuesPerKey: 10}.Build(env)
	if err != nil {
		return nil, err
	}
	return &batchRun{c: c, fs: env.FS, o: run.Options{Mode: mode}, subs: []run.Submission{{Spec: spec}}}, nil
}

// streamShape sizes the jobstream workload: an open-loop Poisson stream of
// small sorts on 4 machines, alternating CPU-heavy (10 values per key) and
// I/O-heavy (50 values) jobs across two pools weighted 3:1, under a seeded
// plan of transient faults.
type streamShape struct {
	machines int
	jobs     int
	jobBytes int64
	maps     int
	reduces  int
	// meanGap is the mean interarrival time in virtual seconds. A solo job
	// takes 12–15 s and the cluster keeps up with arrivals down to a gap of
	// about 12 s, so the stream runs below saturation and no backlog builds.
	meanGap float64
	// faultSegment is how many consecutive jobs one drawn fault plan covers.
	faultSegment int
}

var jobstreamShape = streamShape{
	machines: 4, jobs: 400, jobBytes: 2 * units.GB, maps: 64, reduces: 32, meanGap: 14, faultSegment: 100,
}

func jobstreamWorkload(shape streamShape) batchWorkload {
	return batchWorkload{name: "jobstream", variants: 8, build: func(seed int64) (*batchRun, error) {
		return buildStream(shape, seed)
	}}
}

func buildStream(s streamShape, seed int64) (*batchRun, error) {
	c, err := cluster.New(s.machines, cluster.M2_4XLarge())
	if err != nil {
		return nil, err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return nil, err
	}
	arrivals, err := workloads.MultiJob{
		Name: "stream", Jobs: s.jobs, MeanInterarrival: s.meanGap, Seed: seed,
		JobBytes: s.jobBytes, ValuesPerKey: []int{10, 50},
		MapTasks: s.maps, ReduceTasks: s.reduces, Pools: []string{"prod", "adhoc"},
	}.Build(env)
	if err != nil {
		return nil, err
	}
	subs := make([]run.Submission, len(arrivals))
	for i, a := range arrivals {
		subs[i] = run.Submission{Spec: a.Spec, At: a.At, Opts: jobsched.SubmitOptions{Pool: a.Pool}}
	}
	plan, err := streamFaults(s, seed)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(c, plan)
	if err != nil {
		return nil, err
	}
	o := run.Options{
		Mode:   run.Monotasks,
		Faults: inj,
		Sched: jobsched.Config{
			// An error window can cover several of the 4 machines at once,
			// so a task may fail on each in turn; Spark's
			// spark.task.maxFailures is raised the same way on flaky clusters.
			MaxTaskFailures: 8,
			Pools: []jobsched.PoolConfig{
				{Name: "prod", Weight: 3},
				{Name: "adhoc", Weight: 1},
			},
		},
	}
	return &batchRun{c: c, fs: env.FS, o: o, subs: subs, open: true, inj: inj}, nil
}

// streamFaults draws one transient-fault plan per faultSegment jobs of the
// stream and shifts each to its segment's span of arrival time. RandomPlan
// scales fault durations with its horizon, so per-segment plans keep error
// windows and stragglers at a few hundred virtual seconds however long the
// stream is. Transient faults only: no crashes, so every job can finish and
// a failed job is a real failure rather than an expected casualty.
func streamFaults(s streamShape, seed int64) (faults.Plan, error) {
	span := float64(s.faultSegment) * s.meanGap
	plan := faults.Plan{Seed: seed}
	for k := 0; k*s.faultSegment < s.jobs; k++ {
		p, err := faults.RandomPlan(seed*100+int64(k), faults.PlanConfig{
			Machines:          s.machines,
			Horizon:           sim.Duration(span),
			Stragglers:        1,
			DiskErrorWindows:  1,
			FlakyFetchWindows: 1,
			TaskKills:         3,
		})
		if err != nil {
			return faults.Plan{}, err
		}
		for _, e := range p.Events {
			e.At += sim.Time(float64(k) * span)
			plan.Events = append(plan.Events, e)
		}
	}
	return plan, nil
}

// batchResult is what one batch run produced, read back from its outputs.
type batchResult struct {
	jobs   []*task.JobMetrics
	failed []bool // per job: aborted, or missing a stage or task result
	tasks  int    // winning task attempts over all jobs
}

// runPublic executes r through the entry points users call:
// run.JobsContext for a batch submitted up front, and run.Driver with
// arrival-time submissions for an open-loop stream. (run.JobsAt builds its
// driver internally, so a fault injector cannot be bound to it and the plan's
// task kills would never fire; the stream therefore schedules its arrivals
// the way JobsAt does, on a driver it can bind.)
func runPublic(r *batchRun) (*batchResult, error) {
	if !r.open {
		specs := make([]*task.JobSpec, len(r.subs))
		for i, s := range r.subs {
			specs[i] = s.Spec
		}
		ms, err := run.JobsContext(context.Background(), r.c, r.fs, r.o, specs...)
		if err != nil {
			return nil, err
		}
		return readResult(ms, nil), nil
	}
	d, err := run.Driver(r.c, r.fs, r.o)
	if err != nil {
		return nil, err
	}
	handles, errp := r.schedule(d, d.SubmitWith)
	d.Run()
	if *errp != nil {
		return nil, *errp
	}
	return readResult(nil, handles), nil
}

// schedule installs the fault plan and submits every arrival at its time
// through submit, returning the handles (filled as arrivals fire) and a
// pointer to the first submission error.
func (r *batchRun) schedule(d *jobsched.Driver, submit func(*task.JobSpec, jobsched.SubmitOptions) (*jobsched.JobHandle, error)) ([]*jobsched.JobHandle, *error) {
	if r.inj != nil {
		r.inj.Install()
		r.inj.Bind(d)
	}
	handles := make([]*jobsched.JobHandle, len(r.subs))
	var first error
	for i, s := range r.subs {
		i, s := i, s
		r.c.Engine.At(s.At, func() {
			h, err := submit(s.Spec, s.Opts)
			if err != nil && first == nil {
				first = fmt.Errorf("submitting job %d (%q): %w", i, s.Spec.Name, err)
			}
			handles[i] = h
		})
	}
	return handles, &first
}

// readResult checks every job's outputs for completeness. Exactly one of ms
// (a batch run) or handles (a stream, whose handles also carry aborts) is set.
func readResult(ms []*task.JobMetrics, handles []*jobsched.JobHandle) *batchResult {
	res := &batchResult{jobs: ms}
	var aborted []bool
	if handles != nil {
		for _, h := range handles {
			if h == nil {
				res.jobs = append(res.jobs, &task.JobMetrics{Name: "never-submitted"})
				aborted = append(aborted, true)
				continue
			}
			res.jobs = append(res.jobs, h.Metrics)
			aborted = append(aborted, !h.Done() || h.Err() != nil)
		}
	}
	for i, jm := range res.jobs {
		bad := (aborted != nil && aborted[i]) || len(jm.Stages) == 0 || jm.End <= jm.Start
		for _, st := range jm.Stages {
			if st == nil || st.Spec == nil || len(st.Tasks) != st.Spec.NumTasks {
				bad = true
				continue
			}
			for _, tm := range st.Tasks {
				if tm == nil || tm.Failed {
					bad = true
					continue
				}
				res.tasks++
			}
		}
		res.failed = append(res.failed, bad)
	}
	return res
}

// batchDigest hashes the run's simulated outputs: every job's and stage's
// start and end times and task count, and every machine's disk bytes read
// and written. Float values are rendered exactly, so any change to simulated
// behaviour changes the digest.
func batchDigest(r *batchRun, res *batchResult) string {
	var b []byte
	f := func(x float64) { b = strconv.AppendFloat(b, x, 'g', -1, 64); b = append(b, '|') }
	n := func(x int64) { b = strconv.AppendInt(b, x, 10); b = append(b, '|') }
	for _, jm := range res.jobs {
		b = append(b, jm.Name...)
		f(float64(jm.Start))
		f(float64(jm.End))
		for _, st := range jm.Stages {
			f(float64(st.Start))
			f(float64(st.End))
			n(int64(len(st.Tasks)))
		}
	}
	for _, rd := range machineDiskBytes(r.c) {
		n(rd)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// machineDiskBytes lists each machine's disk bytes read then written.
func machineDiskBytes(c *cluster.Cluster) []int64 {
	out := make([]int64, 0, 2*c.Size())
	for _, m := range c.Machines {
		var rd, wr int64
		for _, d := range m.Disks {
			rd += d.BytesRead()
			wr += d.BytesWritten()
		}
		out = append(out, rd, wr)
	}
	return out
}

// batchCounters are the outside-in counts one traced batch run collects at
// the layer boundaries the benchmark can reach from outside the program.
type batchCounters struct {
	events     int64 // engine events executed, counted by driving Engine.Step
	stepNs     int64 // host time inside the Step loop
	launches   map[string]*launchCount
	submits    int64
	submitNs   int64
	nicUpdates int64 // utilization-tracker points over every NIC direction
	diskBytes  int64
	predictNs  int64 // model.FromMetrics + model.Predict over every job
	predicts   int64
}

// launchCount accumulates one executor layer's Launch calls.
type launchCount struct {
	launches int64
	ns       int64
	failed   int64
}

// countingExecutor wraps a worker's executor to count launches, the host
// time spent inside Launch, and attempts that report failure.
type countingExecutor struct {
	task.Executor
	n *launchCount
}

func (e countingExecutor) Launch(t *task.Task, done func(*task.TaskMetrics)) {
	n := e.n
	n.launches++
	start := time.Now()
	e.Executor.Launch(t, func(m *task.TaskMetrics) {
		if m.Failed {
			n.failed++
		}
		done(m)
	})
	n.ns += time.Since(start).Nanoseconds()
}

// executorLayer names the package implementing an executor.
func executorLayer(e task.Executor) string {
	switch e.(type) {
	case *core.Worker:
		return "core"
	case *pipeexec.Worker:
		return "pipeexec"
	}
	return "other"
}

// runTraced executes r like runPublic, but assembled from its parts so each
// layer boundary can be counted: executors from run.Executors wrapped in
// countingExecutor, a driver from jobsched.NewWithConfig, timed SubmitWith
// calls, and the engine driven one Step at a time.
func runTraced(r *batchRun, cnt *batchCounters) (*batchResult, error) {
	execs := run.Executors(r.c, r.o)
	for i, e := range execs {
		layer := executorLayer(e)
		if cnt.launches[layer] == nil {
			cnt.launches[layer] = &launchCount{}
		}
		execs[i] = countingExecutor{Executor: e, n: cnt.launches[layer]}
	}
	d, err := jobsched.NewWithConfig(r.c, r.fs, execs, r.o.Sched)
	if err != nil {
		return nil, err
	}
	submit := func(spec *task.JobSpec, opts jobsched.SubmitOptions) (*jobsched.JobHandle, error) {
		start := time.Now()
		h, err := d.SubmitWith(spec, opts)
		cnt.submitNs += time.Since(start).Nanoseconds()
		cnt.submits++
		return h, err
	}
	var handles []*jobsched.JobHandle
	errp := new(error)
	if r.open {
		handles, errp = r.schedule(d, submit)
	} else {
		for _, s := range r.subs {
			if _, err := submit(s.Spec, s.Opts); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	for r.c.Engine.Step() {
		cnt.events++
	}
	cnt.stepNs += time.Since(start).Nanoseconds()
	ms := d.Run() // the queue is drained: this only collects metrics
	if *errp != nil {
		return nil, *errp
	}
	if r.open {
		return readResult(nil, handles), nil
	}
	return readResult(ms, nil), nil
}

// collectCounters reads the counters a finished traced run leaves behind:
// NIC utilization-tracker lengths, disk bytes, and the host time the §6
// model takes to profile every job and answer two what-ifs from its metrics.
func collectCounters(r *batchRun, res *batchResult, cnt *batchCounters) {
	for i := 0; i < r.c.Fabric.Size(); i++ {
		nic := r.c.Fabric.NIC(i)
		cnt.nicUpdates += int64(nic.UtilOut.Len() + nic.UtilIn.Len())
	}
	for _, b := range machineDiskBytes(r.c) {
		cnt.diskBytes += b
	}
	resources := model.ClusterResources(r.c)
	start := time.Now()
	for _, jm := range res.jobs {
		if len(jm.Stages) == 0 {
			continue
		}
		p := model.FromMetrics(jm, resources)
		model.Predict(p, model.ScaleDiskBW(2), model.InfinitelyFast(task.NetworkResource))
		cnt.predicts++
	}
	cnt.predictNs += time.Since(start).Nanoseconds()
}
