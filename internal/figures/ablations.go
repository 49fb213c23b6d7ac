package figures

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/workloads"
)

// AblationResult is a generic label → runtime table for the design-choice
// ablations DESIGN.md calls out.
type AblationResult struct {
	Title string
	Rows  []AblationRow
	// claim is the ablation's verdict on the table; nil claims nothing.
	claim func(*AblationResult) error
}

// Verify fails unless the table bears out its ablation's claim.
func (r *AblationResult) Verify() error {
	if r.claim == nil {
		return nil
	}
	return r.claim(r)
}

// slower claims, for each pair {i, j}, that row i's configuration runs
// slower than row j's.
func slower(pairs ...[2]int) func(*AblationResult) error {
	return func(r *AblationResult) error {
		var c claims
		for _, p := range pairs {
			a, b := r.Rows[p[0]], r.Rows[p[1]]
			c.check(a.Seconds > b.Seconds, "%s (%.1f s) not slower than %s (%.1f s)", a.Label, a.Seconds, b.Label, b.Seconds)
		}
		return c.verdict(r.Title)
	}
}

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Label   string
	Seconds float64
	Note    string
}

// Fprint renders the table.
func (r *AblationResult) Fprint(w io.Writer) {
	fprintf(w, "%s\n", r.Title)
	fprintf(w, "%-28s %10s  %s\n", "configuration", "job(s)", "")
	for _, row := range r.Rows {
		fprintf(w, "%-28s %10.1f  %s\n", row.Label, row.Seconds, row.Note)
	}
}

// runSortWithMono runs the reference sort under specific monotask options.
func runSortWithMono(ctx context.Context, setup Setup, opts core.Options) (float64, error) {
	res, err := execute(ctx, setup, 5, cluster.M2_4XLarge(),
		run.Options{Mode: run.Monotasks, Mono: opts},
		workloads.Sort{TotalBytes: 60 * units.GB, ValuesPerKey: 25}.Build)
	if err != nil {
		return 0, err
	}
	return float64(res.Jobs[0].Duration()), nil
}

// AblationPhaseRR compares the §3.3 phase round-robin queues against plain
// FIFO in the scenario the paper describes: a deep backlog of disk writes
// (from a write-heavy job) with a read-then-compute job arriving behind it.
// Under FIFO the second job's reads are stuck behind every queued write and
// its CPU sits idle; round robin interleaves them.
func AblationPhaseRR(ctx context.Context, setup Setup) (*AblationResult, error) {
	configs := []bool{false, true} // DisablePhaseRoundRobin
	secs, err := sweep.Run(ctx, setup.Workers, len(configs), func(i int) (float64, error) {
		return phaseRRCell(ctx, setup, configs[i])
	})
	if err != nil {
		return nil, err
	}
	// FIFO starves the reader behind the write backlog.
	out := &AblationResult{Title: "Ablation: per-resource queue discipline (§3.3)", claim: slower([2]int{1, 0})}
	for i, fifo := range configs {
		label, note := "phase round-robin (paper)", ""
		if fifo {
			label, note = "plain FIFO", "reader's disk reads starve behind the write backlog"
		}
		out.Rows = append(out.Rows, AblationRow{Label: label, Seconds: secs[i], Note: note})
	}
	return out, nil
}

// phaseRRCell runs the write backlog with the reader arriving behind it,
// with plain FIFO queues when fifo is set, and returns the reader's runtime.
func phaseRRCell(ctx context.Context, setup Setup, fifo bool) (float64, error) {
	c, err := cluster.New(5, cluster.M2_4XLarge())
	if err != nil {
		return 0, err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return 0, err
	}
	writer := &task.JobSpec{Name: "writer", Stages: []*task.StageSpec{{
		ID: 0, Name: "writer", NumTasks: 400, OpCPU: 0.05, OutputBytes: 512 << 20,
	}}}
	reader, err := workloads.ReadCompute{Name: "reader", TotalBytes: 20 * units.GB, NumTasks: 160}.Build(env)
	if err != nil {
		return 0, err
	}
	// The reader arrives once the writer's backlog is established; its
	// runtime isolates the queueing effect.
	o := run.Options{Mode: run.Monotasks, Mono: core.Options{DisablePhaseRoundRobin: fifo}}
	hs, err := run.JobsAtContext(ctx, c, env.FS, setup.observe(o),
		[]run.Submission{{Spec: writer}, {Spec: reader, At: 30}})
	if err != nil {
		return 0, err
	}
	return float64(hs[1].Metrics.Duration()), nil
}

// AblationSpareMultitask compares the §3.4 "+1" spare multitask against a
// concurrency target with no slack.
func AblationSpareMultitask(ctx context.Context, setup Setup) (*AblationResult, error) {
	opts := []core.Options{{}, {NoSpareMultitask: true}}
	secs, err := sweep.Run(ctx, setup.Workers, len(opts), func(i int) (float64, error) {
		return runSortWithMono(ctx, setup, opts[i])
	})
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Title: "Ablation: the spare multitask (§3.4)"}
	out.Rows = append(out.Rows,
		AblationRow{Label: "cores+disks+net+1 (paper)", Seconds: secs[0]},
		AblationRow{Label: "no spare multitask", Seconds: secs[1]},
	)
	return out, nil
}

// AblationNetLimit sweeps the receiver-side limit on multitasks with
// outstanding network requests, reproducing the §3.3 trade-off that led the
// authors to pick four. The cluster has one degraded machine, the exact
// hazard §3.3 names: with too few multitasks outstanding, a receiver can
// sit waiting on data from one slow sender; with too many, no multitask's
// data completes early enough to pipeline with compute.
func AblationNetLimit(ctx context.Context, setup Setup) (*AblationResult, error) {
	// Over-admitting multitasks hurts: 16 outstanding is slower than 4.
	out := &AblationResult{Title: "Ablation: network scheduler multitask limit (§3.3; one machine degraded to 0.4×)",
		claim: slower([2]int{4, 2})}
	limits := []int{1, 2, 4, 8, 16}
	secs, err := sweep.Run(ctx, setup.Workers, len(limits), func(i int) (float64, error) {
		specs := make([]cluster.MachineSpec, 15)
		for j := range specs {
			specs[j] = cluster.I2_2XLarge(2)
		}
		specs[0] = specs[0].Degraded(0.4)
		res, err := executeHetero(ctx, setup, specs,
			run.Options{Mode: run.Monotasks, Mono: core.Options{NetMultitaskLimit: limits[i]}},
			workloads.LeastSquares{}.Build)
		if err != nil {
			return 0, err
		}
		return float64(res.Jobs[0].Duration()), nil
	})
	if err != nil {
		return nil, err
	}
	for i, lim := range limits {
		note := ""
		if lim == 4 {
			note = "(paper's choice)"
		}
		out.Rows = append(out.Rows, AblationRow{
			Label:   labelNetLimit(lim),
			Seconds: secs[i],
			Note:    note,
		})
	}
	return out, nil
}

func labelNetLimit(lim int) string {
	switch lim {
	case 1:
		return "1 multitask outstanding"
	default:
		return lab("%d multitasks outstanding", lim)
	}
}

// AblationSSDConcurrency sweeps outstanding monotasks per flash drive: the
// §3.3 finding is that throughput rises to a knee around four.
func AblationSSDConcurrency(ctx context.Context, setup Setup) (*AblationResult, error) {
	// Throughput rises with concurrency, strictly, up to 4 per SSD.
	out := &AblationResult{Title: "Ablation: outstanding monotasks per SSD (§3.3)", claim: slower([2]int{0, 1}, [2]int{1, 2})}
	concs := []int{1, 2, 4, 8}
	secs, err := sweep.Run(ctx, setup.Workers, len(concs), func(i int) (float64, error) {
		res, err := execute(ctx, setup, 5, cluster.I2_2XLarge(2),
			run.Options{Mode: run.Monotasks, Mono: core.Options{SSDConcurrency: concs[i]}},
			workloads.Sort{TotalBytes: 60 * units.GB, ValuesPerKey: 50}.Build)
		if err != nil {
			return 0, err
		}
		return float64(res.Jobs[0].Duration()), nil
	})
	if err != nil {
		return nil, err
	}
	for i, conc := range concs {
		note := ""
		if conc == 4 {
			note = "(paper's choice: the throughput knee)"
		}
		out.Rows = append(out.Rows, AblationRow{
			Label:   lab("%d per SSD", conc),
			Seconds: secs[i],
			Note:    note,
		})
	}
	return out, nil
}

// AblationLoadAwareWrites compares round-robin write placement against the
// shortest-queue policy §8 proposes, on machines with heterogeneous disks
// (one HDD + one SSD), where round robin keeps feeding the slow drive.
func AblationLoadAwareWrites(ctx context.Context, setup Setup) (*AblationResult, error) {
	spec := cluster.MachineSpec{
		Cores:    8,
		Disks:    []resource.DiskSpec{resource.DefaultHDD(), resource.DefaultSSD()},
		NetBW:    units.Gbps(1),
		MemBytes: 60 * units.GB,
	}
	// Round robin keeps feeding the slow drive; shortest queue wins.
	out := &AblationResult{Title: "Ablation: write-disk selection on mixed HDD+SSD machines (§8)", claim: slower([2]int{0, 1})}
	aware := []bool{false, true}
	secs, err := sweep.Run(ctx, setup.Workers, len(aware), func(i int) (float64, error) {
		res, err := execute(ctx, setup, 5, spec,
			run.Options{Mode: run.Monotasks, Mono: core.Options{LoadAwareWrites: aware[i]}},
			workloads.Sort{TotalBytes: 60 * units.GB, ValuesPerKey: 25}.Build)
		if err != nil {
			return 0, err
		}
		return float64(res.Jobs[0].Duration()), nil
	})
	if err != nil {
		return nil, err
	}
	for i, a := range aware {
		label := "round robin (paper)"
		if a {
			label = "shortest queue (§8)"
		}
		out.Rows = append(out.Rows, AblationRow{Label: label, Seconds: secs[i]})
	}
	return out, nil
}

// lab is a tiny Sprintf wrapper to keep the rows tidy.
func lab(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// AblationNetworkPolicy compares the paper's receiver-limited network
// scheduler against the sender/receiver matching discipline it names as
// future work (pHost / iSlip, §3.3), on the network-heavy ML workload and
// on the sort's disk-backed shuffle.
func AblationNetworkPolicy(ctx context.Context, setup Setup) (*AblationResult, error) {
	out := &AblationResult{Title: "Ablation: network scheduling discipline (§3.3 future work)"}
	configs := []struct {
		label  string
		policy core.NetworkPolicy
	}{
		{"receiver-limited (paper)", core.ReceiverLimited},
		{"sender/receiver matching", core.SenderReceiverMatching},
	}
	// Cells 0..1 are the ML workload, 2..3 the sort, preserving row order.
	rows, err := sweep.Run(ctx, setup.Workers, 2*len(configs), func(i int) (AblationRow, error) {
		cfgRow := configs[i%len(configs)]
		o := run.Options{Mode: run.Monotasks, Mono: core.Options{NetworkPolicy: cfgRow.policy}}
		var res *RunResult
		var err error
		var suffix string
		if i < len(configs) {
			suffix = " / ml"
			res, err = execute(ctx, setup, 15, cluster.I2_2XLarge(2), o, workloads.LeastSquares{}.Build)
		} else {
			suffix = " / sort"
			res, err = execute(ctx, setup, 5, cluster.M2_4XLarge(), o,
				workloads.Sort{TotalBytes: 60 * units.GB, ValuesPerKey: 25}.Build)
		}
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Label:   cfgRow.label + suffix,
			Seconds: float64(res.Jobs[0].Duration()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}
