// Package faults is the deterministic fault-injection subsystem: a Plan of
// timed fault events — machine crashes and recoveries, device degradation,
// transient I/O error and flaky-fetch windows, straggler slowdowns, task
// kills — injected into the simulated cluster and driver at exact virtual
// times.
//
// Everything is driven by the simulation clock and, where randomness is
// wanted, by a seeded PRNG consulted in deterministic order: the simulation
// is single-threaded, so one seed reproduces a bit-identical run, which is
// what makes chaos testing assertable (internal/faults's chaos harness runs
// every seed twice and requires identical outcomes).
//
// The paper's monotasks architecture (§3) changes how work is executed, not
// how it is recovered; this package exercises the recovery half — the
// driver-side retry budgets, machine exclusion, and parent-stage
// resubmission of internal/jobsched — under reproducible adversity.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Kind enumerates fault event types.
type Kind int

const (
	// MachineCrash fail-stops a machine (jobsched.Driver.FailMachine):
	// in-flight attempts are discarded, its shuffle outputs are invalidated,
	// and no new tasks are assigned.
	MachineCrash Kind = iota
	// MachineRecover rejoins a crashed machine
	// (jobsched.Driver.RecoverMachine); its DFS replicas become readable
	// again and its surviving capacity re-registers.
	MachineRecover
	// MachineSlowdown multiplies the speed of every device on a machine
	// (CPU, disks, NIC) by Factor — the classic straggler. Duration > 0
	// restores full speed after that span.
	MachineSlowdown
	// DiskDegrade multiplies only the machine's disk bandwidth by Factor
	// (a failing spindle). Duration > 0 restores it.
	DiskDegrade
	// NICDegrade multiplies only the machine's link bandwidth by Factor
	// (a renegotiated 10→1 GbE link). Duration > 0 restores it.
	NICDegrade
	// DiskErrorWindow opens a window [At, At+Duration) in which each task
	// attempt on Machine that touches local disk fails with probability
	// Prob (a transient I/O error). Duration <= 0 leaves it open forever.
	DiskErrorWindow
	// FlakyFetchWindow opens a window in which each attempt on Machine with
	// remote input (shuffle fetches or a non-local block read) fails with
	// probability Prob — a flaky shuffle flow. Duration <= 0 is open-ended.
	FlakyFetchWindow
	// TaskKill kills up to Count attempts running on Machine at At
	// (jobsched.Driver.FailRunningTasks) — a task JVM OOM or a preempting
	// cluster manager.
	TaskKill
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case MachineCrash:
		return "machine-crash"
	case MachineRecover:
		return "machine-recover"
	case MachineSlowdown:
		return "machine-slowdown"
	case DiskDegrade:
		return "disk-degrade"
	case NICDegrade:
		return "nic-degrade"
	case DiskErrorWindow:
		return "disk-error-window"
	case FlakyFetchWindow:
		return "flaky-fetch-window"
	case TaskKill:
		return "task-kill"
	default:
		return fmt.Sprintf("fault-kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual time the fault fires (or its window opens).
	At sim.Time
	// Kind selects what the fault does.
	Kind Kind
	// Machine is the machine it targets.
	Machine int
	// Factor is the speed multiplier for the degradation kinds (0 < Factor).
	Factor float64
	// Duration bounds degradation spans and probability windows; zero or
	// negative means "until the end of the run".
	Duration sim.Duration
	// Prob is the per-attempt failure probability inside a window, in [0,1].
	Prob float64
	// Count is how many attempts a TaskKill kills.
	Count int
	// Reason labels injected failures in task metrics and the fault log.
	Reason string
}

// Plan is a reproducible fault schedule: explicit events plus the seed that
// drives per-attempt coin flips inside probability windows.
type Plan struct {
	// Seed seeds the per-attempt coin flips (not RandomPlan's draw).
	Seed int64
	// Events are the scheduled faults, in any order; Injector sorts them
	// by time.
	Events []Event
}

// Validate reports structural errors against a cluster of n machines.
func (p *Plan) Validate(n int) error {
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d (%v) at negative time %v", i, e.Kind, e.At)
		}
		if e.Machine < 0 || e.Machine >= n {
			return fmt.Errorf("faults: event %d (%v) targets machine %d of %d", i, e.Kind, e.Machine, n)
		}
		switch e.Kind {
		case MachineSlowdown, DiskDegrade, NICDegrade:
			if e.Factor <= 0 {
				return fmt.Errorf("faults: event %d (%v) needs a positive Factor, got %v", i, e.Kind, e.Factor)
			}
		case DiskErrorWindow, FlakyFetchWindow:
			if e.Prob < 0 || e.Prob > 1 {
				return fmt.Errorf("faults: event %d (%v) probability %v outside [0,1]", i, e.Kind, e.Prob)
			}
		case TaskKill:
			if e.Count <= 0 {
				return fmt.Errorf("faults: event %d (task-kill) needs a positive Count, got %d", i, e.Count)
			}
		}
	}
	return nil
}

// sorted returns the events ordered by time (stable, so same-time events
// keep plan order — which keeps injection deterministic).
func (p *Plan) sorted() []Event {
	evs := make([]Event, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// PlanConfig sizes RandomPlan. Zero counts mean "none of that kind"; the
// zero value therefore produces an empty (but still valid) plan.
type PlanConfig struct {
	// Machines is the cluster size faults are drawn over. Required.
	Machines int
	// Horizon is the virtual-time span faults land in. Default 120 s.
	Horizon sim.Duration
	// Crashes is how many machines crash (each on a distinct machine, at
	// most Machines-1 so the cluster never fully dies). Each crash recovers
	// later with probability RecoverProb.
	Crashes int
	// RecoverProb is the chance a crashed machine rejoins within the
	// horizon. Default 0.75.
	RecoverProb float64
	// Stragglers is how many whole-machine slowdowns occur (factor drawn
	// from [0.2, 0.6), restored before the horizon ends).
	Stragglers int
	// DiskDegrades counts single-disk-set degradations (factor in
	// [0.1, 0.5), bounded duration).
	DiskDegrades int
	// NICDegrades counts NIC degradations, drawn like DiskDegrades.
	NICDegrades int
	// DiskErrorWindows counts transient disk-error windows (probability
	// in [0.2, 0.7), bounded duration).
	DiskErrorWindows int
	// FlakyFetchWindows counts flaky-fetch windows, drawn like
	// DiskErrorWindows.
	FlakyFetchWindows int
	// TaskKills counts point kills of 1–3 running attempts.
	TaskKills int
}

func (c PlanConfig) withDefaults() PlanConfig {
	if c.Horizon <= 0 {
		c.Horizon = 120
	}
	if c.RecoverProb <= 0 {
		c.RecoverProb = 0.75
	}
	return c
}

// RandomPlan draws a Plan from cfg using the given seed. The same (seed,
// cfg) always yields the same plan; together with the injector's seeded
// coin flips that makes a whole chaos run reproducible.
func RandomPlan(seed int64, cfg PlanConfig) (Plan, error) {
	if cfg.Machines <= 0 {
		return Plan{}, fmt.Errorf("faults: RandomPlan needs Machines > 0, got %d", cfg.Machines)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	h := float64(cfg.Horizon)

	// Crashes land on distinct machines so a small cluster can survive
	// (keep at least one machine standing).
	crashes := cfg.Crashes
	if crashes > cfg.Machines-1 {
		crashes = cfg.Machines - 1
	}
	perm := rng.Perm(cfg.Machines)
	for i := 0; i < crashes; i++ {
		m := perm[i]
		at := sim.Time((0.05 + 0.55*rng.Float64()) * h)
		p.Events = append(p.Events, Event{At: at, Kind: MachineCrash, Machine: m})
		if rng.Float64() < cfg.RecoverProb {
			rec := at + sim.Duration((0.10+0.25*rng.Float64())*h)
			p.Events = append(p.Events, Event{At: rec, Kind: MachineRecover, Machine: m})
		}
	}
	for i := 0; i < cfg.Stragglers; i++ {
		p.Events = append(p.Events, Event{
			At:       sim.Time((0.05 + 0.6*rng.Float64()) * h),
			Kind:     MachineSlowdown,
			Machine:  rng.Intn(cfg.Machines),
			Factor:   0.2 + 0.4*rng.Float64(),
			Duration: sim.Duration((0.1 + 0.3*rng.Float64()) * h),
		})
	}
	for i := 0; i < cfg.DiskDegrades; i++ {
		p.Events = append(p.Events, Event{
			At:       sim.Time((0.05 + 0.6*rng.Float64()) * h),
			Kind:     DiskDegrade,
			Machine:  rng.Intn(cfg.Machines),
			Factor:   0.1 + 0.4*rng.Float64(),
			Duration: sim.Duration((0.1 + 0.3*rng.Float64()) * h),
		})
	}
	for i := 0; i < cfg.NICDegrades; i++ {
		p.Events = append(p.Events, Event{
			At:       sim.Time((0.05 + 0.6*rng.Float64()) * h),
			Kind:     NICDegrade,
			Machine:  rng.Intn(cfg.Machines),
			Factor:   0.1 + 0.4*rng.Float64(),
			Duration: sim.Duration((0.1 + 0.3*rng.Float64()) * h),
		})
	}
	for i := 0; i < cfg.DiskErrorWindows; i++ {
		p.Events = append(p.Events, Event{
			At:       sim.Time((0.05 + 0.6*rng.Float64()) * h),
			Kind:     DiskErrorWindow,
			Machine:  rng.Intn(cfg.Machines),
			Prob:     0.2 + 0.5*rng.Float64(),
			Duration: sim.Duration((0.05 + 0.2*rng.Float64()) * h),
			Reason:   "injected transient disk I/O error",
		})
	}
	for i := 0; i < cfg.FlakyFetchWindows; i++ {
		p.Events = append(p.Events, Event{
			At:       sim.Time((0.05 + 0.6*rng.Float64()) * h),
			Kind:     FlakyFetchWindow,
			Machine:  rng.Intn(cfg.Machines),
			Prob:     0.2 + 0.5*rng.Float64(),
			Duration: sim.Duration((0.05 + 0.2*rng.Float64()) * h),
			Reason:   "injected flaky shuffle fetch",
		})
	}
	for i := 0; i < cfg.TaskKills; i++ {
		p.Events = append(p.Events, Event{
			At:      sim.Time((0.05 + 0.7*rng.Float64()) * h),
			Kind:    TaskKill,
			Machine: rng.Intn(cfg.Machines),
			Count:   1 + rng.Intn(3),
			Reason:  "injected task kill",
		})
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p, nil
}
