package monospark

import (
	"repro/internal/faults"
	"repro/internal/sim"
)

// The fault-plan vocabulary lives in internal/faults; these aliases re-export
// it so callers outside the module can build explicit plans and size random
// ones without importing an internal path.
type (
	// FaultPlan is an explicit fault schedule (alias of the internal type).
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault in a FaultPlan.
	FaultEvent = faults.Event
	// FaultKind enumerates fault event types (FaultMachineCrash, ...).
	FaultKind = faults.Kind
	// FaultPlanConfig sizes a randomly drawn plan.
	FaultPlanConfig = faults.PlanConfig
	// FaultRecord is one injected fault as it happened.
	FaultRecord = faults.Record
)

// Fault kinds, re-exported for building explicit FaultPlans.
const (
	FaultMachineCrash     = faults.MachineCrash
	FaultMachineRecover   = faults.MachineRecover
	FaultMachineSlowdown  = faults.MachineSlowdown
	FaultDiskDegrade      = faults.DiskDegrade
	FaultNICDegrade       = faults.NICDegrade
	FaultDiskErrorWindow  = faults.DiskErrorWindow
	FaultFlakyFetchWindow = faults.FlakyFetchWindow
	FaultTaskKill         = faults.TaskKill
)

// ChaosConfig switches on deterministic fault injection for every job the
// Context runs: machines crash and rejoin, devices degrade, attempts suffer
// transient errors — all at exact virtual times reproduced bit-identically
// by the same seed. Jobs either complete correctly (the data plane is real,
// so results are checkable) or fail with a descriptive error from the
// action; they never hang or panic.
type ChaosConfig struct {
	// Seed drives random plan generation (when Plan is nil) and the
	// injector's per-attempt coin flips.
	Seed int64
	// Plan, when non-nil, is an explicit fault schedule. A zero Plan.Seed is
	// replaced by Seed so coin flips stay tied to the chaos seed.
	Plan *FaultPlan
	// Random sizes the randomly drawn plan used when Plan is nil; Machines
	// defaults to the Context's machine count.
	Random FaultPlanConfig
	// MaxTaskFailures, ExcludeAfterFailures, and FetchRetryTimeout override
	// the driver's resilience defaults (see jobsched.Config); zero keeps
	// each default.
	MaxTaskFailures      int
	ExcludeAfterFailures int
	FetchRetryTimeout    float64
}

// initChaos builds the fault injector. Called once by New, before the
// executors exist; the run layer installs its plan on the engine with the
// first job's driver and binds every later driver.
func (c *Context) initChaos() error {
	ch := c.cfg.Chaos
	var plan faults.Plan
	if ch.Plan != nil {
		plan = *ch.Plan
		if plan.Seed == 0 {
			plan.Seed = ch.Seed
		}
	} else {
		rc := ch.Random
		if rc.Machines <= 0 {
			rc.Machines = c.cfg.Machines
		}
		var err error
		plan, err = faults.RandomPlan(ch.Seed, rc)
		if err != nil {
			return err
		}
	}
	inj, err := faults.NewInjector(c.cluster, plan)
	if err != nil {
		return err
	}
	c.opts.Faults = inj
	c.opts.Sched.MaxTaskFailures = ch.MaxTaskFailures
	c.opts.Sched.ExcludeAfterFailures = ch.ExcludeAfterFailures
	c.opts.Sched.FetchRetryTimeout = sim.Duration(ch.FetchRetryTimeout)
	return nil
}

// FaultEvents returns the faults injected so far across all jobs run on
// this Context, in injection order. Empty unless Config.Chaos is set.
func (c *Context) FaultEvents() []FaultRecord {
	if c.opts.Faults == nil {
		return nil
	}
	return c.opts.Faults.Log()
}
