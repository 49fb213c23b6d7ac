package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/jobsched"
	"repro/internal/sim"
	"repro/internal/task"
)

// Record is one injected fault as it happened, for timelines and traces.
type Record struct {
	// At is the virtual time the fault took effect.
	At sim.Time
	// Kind is the plan event kind that caused it.
	Kind Kind
	// Machine is the machine it hit.
	Machine int
	// Detail describes what happened, for the trace line.
	Detail string
}

// String renders the record as a one-line trace entry.
func (r Record) String() string {
	return fmt.Sprintf("t=%.3f %v machine=%d %s", float64(r.At), r.Kind, r.Machine, r.Detail)
}

// Injector executes a Plan against a simulated cluster and driver. It is
// also the driver's jobsched.FaultInjector: before the driver launches an
// attempt it applies any active probability window with a coin flip from
// its seeded PRNG, so a failed attempt never reaches an executor.
//
// Lifecycle: NewInjector over the cluster, then hand the injector to
// internal/run as Options.Faults. Every driver run builds installs it
// (Install schedules the plan's events on the engine the first time and is a
// no-op after that) and then binds it (Bind points crashes, task kills and
// attempt faults at that driver). A session that builds one driver per job
// on one engine — monospark.Context — binds each in turn, and Bind replays
// the current crash state into the fresh driver.
type Injector struct {
	c         *cluster.Cluster
	plan      Plan
	events    []Event
	rng       *rand.Rand
	driver    *jobsched.Driver
	installed bool
	crashed   []bool
	windows   []probWindow
	log       []Record
}

// probWindow is an active (or future) DiskErrorWindow / FlakyFetchWindow.
type probWindow struct {
	kind     Kind
	machine  int
	from, to sim.Time
	prob     float64
	reason   string
}

// NewInjector validates plan against c and prepares an injector. The
// injection PRNG is seeded from Plan.Seed but independent of RandomPlan's
// stream, so explicit and random plans inject identically.
func NewInjector(c *cluster.Cluster, plan Plan) (*Injector, error) {
	if err := plan.Validate(c.Size()); err != nil {
		return nil, err
	}
	in := &Injector{
		c:       c,
		plan:    plan,
		events:  plan.sorted(),
		rng:     rand.New(rand.NewSource(plan.Seed ^ 0x5eed_fa17_ca5e)),
		crashed: make([]bool, c.Size()),
	}
	for _, e := range in.events {
		if e.Kind != DiskErrorWindow && e.Kind != FlakyFetchWindow {
			continue
		}
		to := sim.Forever
		if e.Duration > 0 {
			to = e.At + e.Duration
		}
		in.windows = append(in.windows, probWindow{
			kind: e.Kind, machine: e.Machine, from: e.At, to: to, prob: e.Prob, reason: e.Reason,
		})
	}
	return in, nil
}

// Plan returns the plan the injector executes.
func (in *Injector) Plan() Plan { return in.plan }

// Install schedules every plan event on the cluster engine. It is
// idempotent: only the first call schedules anything. The engine cannot
// schedule into its past, so if the plan has an event before the engine's
// clock, Install schedules nothing and returns an error; install before the
// run reaches the plan's first event.
func (in *Injector) Install() error {
	if in.installed {
		return nil
	}
	if now := in.c.Engine.Now(); len(in.events) > 0 && in.events[0].At < now {
		e := in.events[0]
		return fmt.Errorf("faults: plan event %v on machine %d at t=%v is before the engine clock t=%v", e.Kind, e.Machine, e.At, now)
	}
	in.installed = true
	for _, e := range in.events {
		e := e
		in.c.Engine.At(e.At, func() { in.apply(e) })
		if e.Duration > 0 {
			switch e.Kind {
			case MachineSlowdown, DiskDegrade, NICDegrade:
				in.c.Engine.At(e.At+e.Duration, func() { in.restore(e) })
			}
		}
	}
	return nil
}

// Bind points the injector at the driver scheduling the current job(s),
// makes it the driver's fault injector, and replays the present crash state
// into it, since a driver built mid-chaos (monospark makes one per job) must
// not schedule onto machines that are currently down.
func (in *Injector) Bind(d *jobsched.Driver) {
	in.driver = d
	d.SetFaultInjector(in)
	for m, down := range in.crashed {
		if down {
			_ = d.FailMachine(m)
		}
	}
}

// Log returns the faults injected so far, in injection order.
func (in *Injector) Log() []Record {
	out := make([]Record, len(in.log))
	copy(out, in.log)
	return out
}

func (in *Injector) record(at sim.Time, k Kind, m int, detail string) {
	in.log = append(in.log, Record{At: at, Kind: k, Machine: m, Detail: detail})
}

// apply executes one plan event at its scheduled time.
func (in *Injector) apply(e Event) {
	now := in.c.Engine.Now()
	switch e.Kind {
	case MachineCrash:
		if in.crashed[e.Machine] {
			return
		}
		in.crashed[e.Machine] = true
		if in.driver != nil {
			_ = in.driver.FailMachine(e.Machine)
		}
		in.record(now, e.Kind, e.Machine, "fail-stop")
	case MachineRecover:
		if !in.crashed[e.Machine] {
			return
		}
		in.crashed[e.Machine] = false
		if in.driver != nil {
			_ = in.driver.RecoverMachine(e.Machine)
		}
		in.record(now, e.Kind, e.Machine, "rejoined cluster")
	case MachineSlowdown:
		in.c.SetMachineSpeed(e.Machine, e.Factor)
		in.record(now, e.Kind, e.Machine, fmt.Sprintf("all devices at %.2fx", e.Factor))
	case DiskDegrade:
		for _, d := range in.c.Machines[e.Machine].Disks {
			d.SetSpeedFactor(e.Factor)
		}
		in.record(now, e.Kind, e.Machine, fmt.Sprintf("disks at %.2fx", e.Factor))
	case NICDegrade:
		in.c.Fabric.SetLinkSpeed(e.Machine, e.Factor)
		in.record(now, e.Kind, e.Machine, fmt.Sprintf("link at %.2fx", e.Factor))
	case DiskErrorWindow, FlakyFetchWindow:
		// The window itself is consulted per-attempt in AttemptFault; the
		// event only marks its opening in the log.
		in.record(now, e.Kind, e.Machine, fmt.Sprintf("window open for %.1fs, p=%.2f", float64(e.Duration), e.Prob))
	case TaskKill:
		if in.driver == nil {
			return
		}
		n := in.driver.FailRunningTasks(e.Machine, e.Count, e.Reason)
		in.record(now, e.Kind, e.Machine, fmt.Sprintf("killed %d of %d attempts", n, e.Count))
	}
}

// restore undoes a bounded degradation.
func (in *Injector) restore(e Event) {
	now := in.c.Engine.Now()
	switch e.Kind {
	case MachineSlowdown:
		in.c.SetMachineSpeed(e.Machine, 1)
		in.record(now, e.Kind, e.Machine, "restored to full speed")
	case DiskDegrade:
		for _, d := range in.c.Machines[e.Machine].Disks {
			d.SetSpeedFactor(1)
		}
		in.record(now, e.Kind, e.Machine, "disks restored")
	case NICDegrade:
		in.c.Fabric.SetLinkSpeed(e.Machine, 1)
		in.record(now, e.Kind, e.Machine, "link restored")
	}
}

// touchesDisk reports whether t's attempt uses a local disk (so a transient
// disk error can plausibly kill it).
func touchesDisk(t *task.Task) bool {
	if t.DiskReadBytes > 0 {
		return true
	}
	if t.Stage.ShuffleOutBytes > 0 && !t.Stage.ShuffleInMemory {
		return true
	}
	if t.Stage.OutputBytes > 0 && !t.Stage.OutputToMem {
		return true
	}
	return false
}

// AttemptFault implements jobsched.FaultInjector: called by the driver at
// each attempt launch, it flips a seeded coin for every window active at
// `now` on the attempt's machine that matches the attempt's I/O shape. A
// failed attempt burns a short random span of virtual time in its slot
// before reporting failure, like a real task dying partway.
func (in *Injector) AttemptFault(t *task.Task, now sim.Time) (string, sim.Duration, bool) {
	for _, w := range in.windows {
		if w.machine != t.Machine || now < w.from || now >= w.to {
			continue
		}
		switch w.kind {
		case DiskErrorWindow:
			if !touchesDisk(t) {
				continue
			}
		case FlakyFetchWindow:
			if len(t.Fetches) == 0 && t.RemoteRead == nil {
				continue
			}
		}
		if in.rng.Float64() >= w.prob {
			continue
		}
		after := sim.Duration(0.05 + 0.45*in.rng.Float64())
		reason := w.reason
		if reason == "" {
			reason = w.kind.String()
		}
		in.record(now, w.kind, t.Machine, fmt.Sprintf("failed attempt %d of stage %d: %s", t.Index, t.Stage.ID, reason))
		return reason, after, true
	}
	return "", 0, false
}
