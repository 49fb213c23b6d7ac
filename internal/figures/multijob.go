package figures

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/jobsched"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
)

// The multijob experiment is the multi-tenant generalization of Fig. 16: an
// open-loop Poisson stream of mixed CPU-heavy and I/O-heavy sort jobs hits
// the driver, which runs them concurrently out of weighted fair-share pools.
// It reports (a) p50/p95/p99 job sojourn time vs offered load for mono vs
// Spark mode, (b) the slot share each pool actually received vs its weight,
// and (c) per-job resource attribution error across N concurrent jobs —
// monotask metrics attribute each job exactly; Spark's slot-share split
// does not.

// MultijobLatencyRow is one offered-load level of the latency table.
type MultijobLatencyRow struct {
	Load                         float64 // offered load ρ = solo time / mean interarrival
	MonoP50, MonoP95, MonoP99    sim.Duration
	SparkP50, SparkP95, SparkP99 sim.Duration
}

// MultijobPoolShare compares one pool's observed slot share with its
// configured weight share.
type MultijobPoolShare struct {
	Pool      string
	Weight    float64
	WantShare float64
	GotShare  float64
}

// MultijobResult is the experiment's full output.
type MultijobResult struct {
	SoloSeconds sim.Duration // one job alone, mono mode (the load calibration)
	JobsPerLoad int
	Latency     []MultijobLatencyRow

	// Batch scenario: BatchJobs submitted at t=0 across two weighted pools.
	BatchJobs     int
	BatchFinished int
	Shares        []MultijobPoolShare

	// Attribution error distributions across the batch's concurrent jobs
	// (relative error of CPU seconds and disk bytes vs solo-run truth).
	MonoErrors  []float64
	SparkErrors []float64
}

// Streams use many small tasks per job: slots are non-preemptive, so the
// fair-share rebalancing after arrivals and stage barriers happens one task
// completion at a time — short tasks keep those transients short.
const (
	multijobMachines = 4
	multijobMaps     = 64
	multijobReduces  = 32
)

// multijobRun is one completed stream execution.
type multijobRun struct {
	Cluster  *cluster.Cluster
	Handles  []*jobsched.JobHandle
	Arrivals []workloads.Arrival
}

// maxEnd is the stream's last job completion time.
func (r *multijobRun) maxEnd() sim.Time {
	var end sim.Time
	for _, h := range r.Handles {
		if h.Metrics.End > end {
			end = h.Metrics.End
		}
	}
	return end
}

// jobMetrics collects the stream's per-job metrics in arrival order.
func (r *multijobRun) jobMetrics() []*task.JobMetrics {
	out := make([]*task.JobMetrics, len(r.Handles))
	for i, h := range r.Handles {
		out[i] = h.Metrics
	}
	return out
}

// runMultijob materializes the stream on a fresh cluster and executes its
// arrival schedule under ctx. o may carry its own telemetry sampler (the
// pool-share measurement watches the scheduler through one); otherwise the
// setup's sink, if any, gets one.
func runMultijob(ctx context.Context, setup Setup, o run.Options, m workloads.MultiJob) (*multijobRun, error) {
	c, err := cluster.New(multijobMachines, cluster.M2_4XLarge())
	if err != nil {
		return nil, err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return nil, err
	}
	arrivals, err := m.Build(env)
	if err != nil {
		return nil, err
	}
	subs := make([]run.Submission, len(arrivals))
	for i, a := range arrivals {
		subs[i] = run.Submission{Spec: a.Spec, At: a.At, Opts: jobsched.SubmitOptions{Pool: a.Pool}}
	}
	handles, err := run.JobsAtContext(ctx, c, env.FS, setup.observe(o), subs)
	if err != nil {
		return nil, err
	}
	return &multijobRun{Cluster: c, Handles: handles, Arrivals: arrivals}, nil
}

// Multijob runs the experiment. Smoke mode shrinks job sizes, counts, and
// the load sweep so CI can run it on every push.
func Multijob(ctx context.Context, setup Setup, smoke bool) (*MultijobResult, error) {
	jobBytes := int64(6 * units.GB)
	loads := []float64{0.4, 0.8}
	jobsPerLoad := 12
	if smoke {
		jobBytes = 2 * units.GB
		loads = []float64{0.6}
		jobsPerLoad = 8
	}
	stream := func(name string, jobs int, meanGap float64, pools []string) workloads.MultiJob {
		return workloads.MultiJob{
			Name: name, Jobs: jobs, MeanInterarrival: meanGap, Seed: 7,
			JobBytes: jobBytes, MapTasks: multijobMaps, ReduceTasks: multijobReduces,
			Pools: pools,
		}
	}
	out := &MultijobResult{JobsPerLoad: jobsPerLoad}

	// Calibrate: one job alone, mono mode. Offered load ρ means the stream
	// delivers ρ solo-job-times of work per solo-job-time.
	solo, err := runMultijob(ctx, setup, run.Options{Mode: run.Monotasks}, stream("solo", 1, 0, nil))
	if err != nil {
		return nil, err
	}
	out.SoloSeconds = solo.Handles[0].Metrics.Duration()

	// Latency vs offered load: the same arrival stream replayed per mode.
	// Every (load, mode) cell is an independent simulation.
	type latCell struct{ p50, p95, p99 sim.Duration }
	latModes := []run.Mode{run.Monotasks, run.Spark}
	latCells, err := sweep.Run(ctx, setup.Workers, len(loads)*len(latModes), func(i int) (latCell, error) {
		load, mode := loads[i/len(latModes)], latModes[i%len(latModes)]
		m := stream(fmt.Sprintf("load%02.0f", load*100), jobsPerLoad, float64(out.SoloSeconds)/load, nil)
		r, err := runMultijob(ctx, setup, run.Options{Mode: mode}, m)
		if err != nil {
			return latCell{}, err
		}
		lat := make([]float64, 0, len(r.Handles))
		for _, h := range r.Handles {
			lat = append(lat, float64(h.Metrics.Duration()))
		}
		sort.Float64s(lat)
		return latCell{
			p50: sim.Duration(metrics.SortedPercentile(lat, 50)),
			p95: sim.Duration(metrics.SortedPercentile(lat, 95)),
			p99: sim.Duration(metrics.SortedPercentile(lat, 99)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for li, load := range loads {
		mc, sc := latCells[li*len(latModes)], latCells[li*len(latModes)+1]
		out.Latency = append(out.Latency, MultijobLatencyRow{
			Load:    load,
			MonoP50: mc.p50, MonoP95: mc.p95, MonoP99: mc.p99,
			SparkP50: sc.p50, SparkP95: sc.p95, SparkP99: sc.p99,
		})
	}

	// Batch scenario: 8 jobs split across two pools weighted 3:1. Arrivals
	// are staggered by a small Poisson gap so same-pool jobs sit at
	// different DAG phases: when one job stalls at its shuffle barrier, its
	// pool-mates absorb the slots and the pool keeps its weighted share
	// (with synchronized identical jobs, every job hits the barrier at
	// once and the pool briefly has nothing runnable).
	poolCfg := jobsched.Config{Pools: []jobsched.PoolConfig{
		{Name: "prod", Weight: 3},
		{Name: "adhoc", Weight: 1},
	}}
	out.BatchJobs = 8
	batchPools := []string{"prod", "adhoc"}
	batch := stream("batch", out.BatchJobs, float64(out.SoloSeconds)/16, batchPools)

	// Pool shares are sampled live: every half second of virtual time, the
	// mono batch's telemetry sampler records each pool's running and
	// pending task counts. The mono batch (with its sampler), the Spark
	// batch, and the two solo ground-truth runs are four independent
	// simulations, so they all go through the sweep pool; the sampler
	// streams into a cell-local slice returned with the run.
	type batchCell struct {
		r       *multijobRun
		samples []telemetry.Snapshot
	}
	truthVPK := []int{10, 50}
	batchCells, err := sweep.Run(ctx, setup.Workers, 4, func(i int) (batchCell, error) {
		switch i {
		case 0:
			var samples []telemetry.Snapshot
			o := run.Options{Mode: run.Monotasks, Sched: poolCfg, OnTelemetry: setup.Telemetry,
				Telemetry: &telemetry.Config{Interval: 0.5, OnSnapshot: func(s *telemetry.Snapshot) {
					samples = append(samples, telemetry.Snapshot{T1: s.T1, Pools: s.Pools})
				}}}
			r, err := runMultijob(ctx, setup, o, batch)
			return batchCell{r: r, samples: samples}, err
		case 1:
			r, err := runMultijob(ctx, setup, run.Options{Mode: run.Spark, Sched: poolCfg}, batch)
			return batchCell{r: r}, err
		default:
			vpk := truthVPK[i-2]
			m := stream(fmt.Sprintf("truth-%dv", vpk), 1, 0, nil)
			m.ValuesPerKey = []int{vpk}
			r, err := runMultijob(ctx, setup, run.Options{Mode: run.Monotasks}, m)
			return batchCell{r: r}, err
		}
	})
	if err != nil {
		return nil, err
	}
	mono, samples := batchCells[0].r, batchCells[0].samples
	for _, h := range mono.Handles {
		if h.Done() {
			out.BatchFinished++
		}
	}

	// Judge fairness only at instants where the shares are the scheduler's
	// choice: (a) both pools backlogged (pending > 0 — a pool with nothing
	// runnable is demand-limited and rightly lends its slots out), and
	// (b) past a settle point after the last arrival — slots are
	// non-preemptive, so shares rebalance only as running tasks finish, and
	// a newly arrived pool reclaims its share one task completion at a time.
	lastArrival := mono.Arrivals[len(mono.Arrivals)-1].At
	settle := lastArrival + sim.Time(float64(out.SoloSeconds)/4)
	poolRunning := map[string]float64{}
	for _, s := range samples {
		if s.T1 < settle {
			continue
		}
		stats := map[string]telemetry.PoolStat{}
		for _, p := range s.Pools {
			stats[p.Name] = p
		}
		backlogged := true
		for _, pc := range poolCfg.Pools {
			if stats[pc.Name].Pending == 0 {
				backlogged = false
			}
		}
		if !backlogged {
			continue
		}
		for _, pc := range poolCfg.Pools {
			poolRunning[pc.Name] += float64(stats[pc.Name].Running)
		}
	}
	var weightSum, runningSum float64
	for _, pc := range poolCfg.Pools {
		weightSum += pc.Weight
		runningSum += poolRunning[pc.Name]
	}
	for _, pc := range poolCfg.Pools {
		share := MultijobPoolShare{Pool: pc.Name, Weight: pc.Weight, WantShare: pc.Weight / weightSum}
		if runningSum > 0 {
			share.GotShare = poolRunning[pc.Name] / runningSum
		}
		out.Shares = append(out.Shares, share)
	}

	// Attribution ground truth per distinct job profile (the stream
	// alternates 10v and 50v): a solo mono run's attributed usage. CPU
	// seconds and disk bytes are placement-independent, so a solo run is a
	// valid truth for them (Fig. 16's argument); network bytes are not and
	// are excluded.
	truth := make([]metrics.MeasuredUsage, 2)
	for i := range truthVPK {
		r := batchCells[2+i].r
		jm := r.Handles[0].Metrics
		att := model.Attribute([]*task.JobMetrics{jm}, 0, jm.End, model.ClusterResources(r.Cluster))
		truth[i] = att[0].Usage
	}
	addErrs := func(dst *[]float64, got metrics.MeasuredUsage, i int) {
		tr := truth[i%2]
		if tr.CPUSeconds > 0 {
			*dst = append(*dst, math.Abs(got.CPUSeconds-tr.CPUSeconds)/tr.CPUSeconds)
		}
		trDisk := float64(tr.DiskReadBytes + tr.DiskWriteBytes)
		if trDisk > 0 {
			*dst = append(*dst, math.Abs(float64(got.DiskReadBytes+got.DiskWriteBytes)-trDisk)/trDisk)
		}
	}

	// Mono: each job's monotask metrics attribute it exactly, live.
	monoAtts := model.Attribute(mono.jobMetrics(), 0, mono.maxEnd(), model.ClusterResources(mono.Cluster))
	for i, a := range monoAtts {
		addErrs(&out.MonoErrors, a.Usage, i)
	}

	// Spark: the same batch, attributed by slot share of OS counters.
	spark := batchCells[1].r
	sparkEnd := spark.maxEnd()
	total := metrics.Measure(spark.Cluster, 0, sparkEnd)
	slotSeconds := make([]float64, len(spark.Handles))
	for i, h := range spark.Handles {
		slotSeconds[i] = metrics.TaskSecondsInWindow(h.Metrics, 0, sparkEnd)
	}
	for i, p := range model.SlotShareAttribution(total, slotSeconds) {
		addErrs(&out.SparkErrors, p, i)
	}
	return out, nil
}

// The multijob verdict's tolerances: a pool's measured slot share may miss
// its weight share by at most multijobShareSlack, and monotask attribution
// error at p75 may be at most multijobMonoErrPct percent.
const (
	multijobShareSlack = 0.05
	multijobMonoErrPct = 0.05
)

// Verify fails unless the experiment's findings hold: every batch job
// finished, each pool received its weighted share of slots, and monotask
// metrics attributed the concurrent jobs' usage exactly.
func (r *MultijobResult) Verify() error {
	var c claims
	c.check(r.BatchFinished == r.BatchJobs, "%d of %d batch jobs finished", r.BatchFinished, r.BatchJobs)
	for _, s := range r.Shares {
		c.check(math.Abs(s.GotShare-s.WantShare) <= multijobShareSlack,
			"pool %s got share %.2f, want %.2f±%.2f", s.Pool, s.GotShare, s.WantShare, multijobShareSlack)
	}
	_, p75 := MedianAndP75(r.MonoErrors)
	c.check(p75 <= multijobMonoErrPct, "mono attribution error p75 %.3f%% exceeds %.2f%%", p75, multijobMonoErrPct)
	return c.verdict("multijob")
}

// Fprint renders the experiment's three tables.
func (r *MultijobResult) Fprint(w io.Writer) {
	fprintf(w, "multijob: open-loop Poisson job stream, %d machines\n", multijobMachines)
	fprintf(w, "solo job time %.1f s; %d jobs per load level\n", float64(r.SoloSeconds), r.JobsPerLoad)
	fprintf(w, "%-6s %10s %10s %10s %10s %10s %10s\n",
		"load", "mono p50", "mono p95", "mono p99", "spark p50", "spark p95", "spark p99")
	for _, row := range r.Latency {
		fprintf(w, "%-6.2f %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			row.Load,
			float64(row.MonoP50), float64(row.MonoP95), float64(row.MonoP99),
			float64(row.SparkP50), float64(row.SparkP95), float64(row.SparkP99))
	}
	fprintf(w, "\nfair-share pools: batch of %d concurrent jobs (%d finished)\n",
		r.BatchJobs, r.BatchFinished)
	fprintf(w, "%-8s %8s %12s %12s\n", "pool", "weight", "want share", "got share")
	for _, s := range r.Shares {
		fprintf(w, "%-8s %8.0f %12.2f %12.2f\n", s.Pool, s.Weight, s.WantShare, s.GotShare)
	}
	mm, mp := MedianAndP75(r.MonoErrors)
	sm, sp := MedianAndP75(r.SparkErrors)
	fprintf(w, "\nper-job attribution error across %d concurrent jobs\n", r.BatchJobs)
	fprintf(w, "%-10s %12s %12s\n", "system", "median err%", "p75 err%")
	fprintf(w, "%-10s %12.1f %12.1f\n", "spark", sm, sp)
	fprintf(w, "%-10s %12.1f %12.1f\n", "monospark", mm, mp)
	fprintf(w, "(generalizes Fig. 16: mono attribution stays exact at N jobs)\n")
}
