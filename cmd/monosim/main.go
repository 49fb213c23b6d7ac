// Command monosim runs one analytics workload on a configurable virtual
// cluster and reports what the monotasks architecture makes visible: stage
// times, per-resource ideal times and bottlenecks, what-if predictions, and
// (optionally) a Chrome trace of every monotask.
//
//	monosim -workload sort -gb 100 -values 10 -machines 10 -disks 2
//	monosim -workload bdb:2c -machines 5 -mode spark
//	monosim -workload ml -machines 15 -ssds 2 -trace run.trace
//	monosim -workload sort -gb 60 -straggler 0.5
//
// Modes: monotasks (default), spark, spark-flush. Only monotasks runs
// produce the model report and traces — which is the paper's point.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/resource"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "sort", "sort | bdb:<query> | ml | wordcount | readcompute")
		gb        = flag.Float64("gb", 60, "input size in GB (sort, wordcount, readcompute)")
		values    = flag.Int("values", 10, "longs per value (sort)")
		tasks     = flag.Int("tasks", 0, "task count override (sort maps, readcompute)")
		machines  = flag.Int("machines", 5, "worker machines")
		cores     = flag.Int("cores", 8, "cores per machine")
		hdds      = flag.Int("disks", 2, "HDDs per machine")
		ssds      = flag.Int("ssds", 0, "SSDs per machine (replaces HDDs when > 0)")
		netGbps   = flag.Float64("net", 1, "link bandwidth in Gb/s")
		mode      = flag.String("mode", "monotasks", "monotasks | spark | spark-flush")
		slots     = flag.Int("tasks-per-machine", 0, "Spark slot override")
		straggler = flag.Float64("straggler", 0, "degrade machine 0 to this speed factor (0 = off)")
		traceOut  = flag.String("trace", "", "write a Chrome trace of the run to this file (monotasks only)")
		whatif    = flag.Bool("whatif", true, "print what-if predictions (monotasks only)")
	)
	flag.Parse()

	if err := runSim(config{
		workload: *workload, gb: *gb, values: *values, tasks: *tasks,
		machines: *machines, cores: *cores, hdds: *hdds, ssds: *ssds,
		netGbps: *netGbps, mode: *mode, slots: *slots,
		straggler: *straggler, traceOut: *traceOut, whatif: *whatif,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "monosim: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	workload  string
	gb        float64
	values    int
	tasks     int
	machines  int
	cores     int
	hdds      int
	ssds      int
	netGbps   float64
	mode      string
	slots     int
	straggler float64
	traceOut  string
	whatif    bool
}

func runSim(cfg config) error {
	spec := cluster.MachineSpec{
		Cores:    cfg.cores,
		NetBW:    units.Gbps(cfg.netGbps),
		MemBytes: 60 * units.GB,
	}
	if cfg.ssds > 0 {
		for i := 0; i < cfg.ssds; i++ {
			spec.Disks = append(spec.Disks, resource.DefaultSSD())
		}
	} else {
		for i := 0; i < cfg.hdds; i++ {
			spec.Disks = append(spec.Disks, resource.DefaultHDD())
		}
	}
	specs := make([]cluster.MachineSpec, cfg.machines)
	for i := range specs {
		specs[i] = spec
	}
	if cfg.straggler > 0 {
		specs[0] = specs[0].Degraded(cfg.straggler)
	}
	c, err := cluster.NewHetero(specs)
	if err != nil {
		return err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return err
	}
	job, err := buildWorkload(cfg, env)
	if err != nil {
		return err
	}

	var opts run.Options
	switch cfg.mode {
	case "monotasks":
		opts.Mode = run.Monotasks
	case "spark":
		opts.Mode = run.Spark
	case "spark-flush":
		opts.Mode = run.SparkWriteThrough
	default:
		return fmt.Errorf("unknown mode %q", cfg.mode)
	}
	opts.TasksPerMachine = cfg.slots

	execs := run.Executors(c, opts)
	d, err := run.DriverWith(c, env.FS, execs, opts)
	if err != nil {
		return err
	}
	if _, err := d.Submit(job); err != nil {
		return err
	}
	ms := d.Run()
	jm := ms[0]
	fmt.Printf("workload %s on %d × (%d cores, %d disks, %.1f Gb/s), mode %s\n",
		job.Name, cfg.machines, cfg.cores, len(spec.Disks), cfg.netGbps, cfg.mode)
	fmt.Printf("job time: %s\n\n", units.FormatSeconds(float64(jm.Duration())))

	res := model.ClusterResources(c)
	memModeled := res.MemBW > 0
	if memModeled {
		fmt.Printf("%-22s %10s %8s %8s %8s %8s %10s\n", "stage", "actual(s)", "cpu*", "disk*", "net*", "mem*", "bottleneck")
	} else {
		fmt.Printf("%-22s %10s %8s %8s %8s %10s\n", "stage", "actual(s)", "cpu*", "disk*", "net*", "bottleneck")
	}
	profile := model.FromMetrics(jm, res)
	monotasksRun := opts.Mode == run.Monotasks
	for i, st := range jm.Stages {
		switch {
		case monotasksRun && memModeled:
			sp := profile.Stages[i]
			cpu, disk, net, mem := sp.IdealTimes(res)
			fmt.Printf("%-22s %10.1f %8.1f %8.1f %8.1f %8.1f %10v\n",
				st.Spec.Name, float64(st.Duration()), cpu, disk, net, mem, sp.Bottleneck(res))
		case monotasksRun:
			sp := profile.Stages[i]
			cpu, disk, net, _ := sp.IdealTimes(res)
			fmt.Printf("%-22s %10.1f %8.1f %8.1f %8.1f %10v\n",
				st.Spec.Name, float64(st.Duration()), cpu, disk, net, sp.Bottleneck(res))
		default:
			fmt.Printf("%-22s %10.1f %8s %8s %8s %10s\n",
				st.Spec.Name, float64(st.Duration()), "-", "-", "-", "(opaque)")
		}
		su := metrics.StageUtil(c, st.Start, st.End, 10)
		fmt.Printf("%-22s %10s  util: %s %.0f%% (p50), %s %.0f%%\n", "", "",
			su.Bottleneck, su.BottleneckBox.P50*100, su.Second, su.SecondBox.P50*100)
	}
	fmt.Println("(* ideal per-resource completion times, §6.1 — monotasks runs only)")

	if monotasksRun {
		// §3.1: contention is visible as per-resource queue lengths.
		fmt.Println("\nqueue lengths on machine 0 over the job (p50/p95):")
		if w, ok := execs[0].(*core.Worker); ok {
			names := []string{"cpu", "disk0", "network"}
			tls := w.QueueTimelines()
			for _, name := range names {
				tl, ok := tls[name]
				if !ok {
					continue
				}
				samples := tl.Samples(0, jm.End, 50)
				fmt.Printf("  %-8s p50=%.1f p95=%.1f\n", name,
					metrics.Percentile(samples, 50), metrics.Percentile(samples, 95))
			}
		}
	}

	if monotasksRun && cfg.whatif {
		fmt.Println("\nwhat-if predictions:")
		for _, q := range []struct {
			label string
			w     []model.WhatIf
		}{
			{"2x disk bandwidth", []model.WhatIf{model.ScaleDiskBW(2)}},
			{"10x network", []model.WhatIf{model.ScaleNetBW(10)}},
			{"2x machines", []model.WhatIf{model.ScaleCluster(2)}},
			{"input in memory", []model.WhatIf{model.InMemoryInput{}}},
			{"infinitely fast disk", []model.WhatIf{model.InfinitelyFast(task.DiskResource)}},
		} {
			pred := model.Predict(profile, q.w...)
			fmt.Printf("  %-22s %8.1fs -> %8.1fs (%.2fx)\n",
				q.label, pred.ActualSeconds, pred.PredictedSeconds,
				pred.ActualSeconds/pred.PredictedSeconds)
		}
	}

	if cfg.traceOut != "" {
		if !monotasksRun {
			return fmt.Errorf("traces require monotasks mode")
		}
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteChromeTrace(f, jm); err != nil {
			return err
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing)\n", cfg.traceOut)
	}
	return nil
}

func buildWorkload(cfg config, env *workloads.Env) (*task.JobSpec, error) {
	bytes := int64(cfg.gb * 1e9)
	switch {
	case cfg.workload == "sort":
		return workloads.Sort{TotalBytes: bytes, ValuesPerKey: cfg.values,
			MapTasks: cfg.tasks, ReduceTasks: cfg.tasks}.Build(env)
	case strings.HasPrefix(cfg.workload, "bdb:"):
		return workloads.BDBQuery(strings.TrimPrefix(cfg.workload, "bdb:"), env)
	case cfg.workload == "ml":
		return workloads.LeastSquares{}.Build(env)
	case cfg.workload == "wordcount":
		return workloads.WordCount{TotalBytes: bytes}.Build(env)
	case cfg.workload == "readcompute":
		tasks := cfg.tasks
		if tasks <= 0 {
			tasks = 4 * env.Cluster.TotalCores()
		}
		return workloads.ReadCompute{TotalBytes: bytes, NumTasks: tasks}.Build(env)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
}
