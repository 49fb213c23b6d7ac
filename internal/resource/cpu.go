package resource

import "repro/internal/sim"

// CPU models a machine's processor as n cores under processor sharing: k
// runnable jobs each progress at rate min(1, n/k). Work is measured in
// core-seconds.
//
// The monotasks compute scheduler admits at most n jobs, so under MonoSpark
// every compute monotask runs at rate 1 (§3.3, "one monotask per core").
// The pipelined executor admits one job per task slot, which may exceed n,
// and then the OS-style sharing kicks in.
type CPU struct {
	cores int
	speed float64
	srv   *server
	// Util is the fraction of the cores in use over time.
	Util Tracker
}

// NewCPU creates a processor with the given core count on eng.
func NewCPU(eng *sim.Engine, cores int) *CPU {
	return NewCPUWithSpeed(eng, cores, 1)
}

// NewCPUWithSpeed creates a processor whose cores run at `speed` times the
// reference rate — the heterogeneity/straggler knob (a degraded machine has
// speed < 1).
func NewCPUWithSpeed(eng *sim.Engine, cores int, speed float64) *CPU {
	if cores <= 0 {
		panic("resource: CPU needs at least one core")
	}
	if speed <= 0 {
		panic("resource: CPU speed must be positive")
	}
	c := &CPU{cores: cores, speed: speed}
	c.srv = newServer(eng,
		func(readers, writers int) float64 {
			k := readers + writers
			if k < cores {
				return speed * float64(k)
			}
			return speed * float64(cores)
		},
		func(k int) {
			busy := float64(k)
			if busy > float64(cores) {
				busy = float64(cores)
			}
			c.Util.Set(eng.Now(), busy/float64(cores))
		})
	return c
}

// Cores reports the core count.
func (c *CPU) Cores() int { return c.cores }

// Run submits coreSeconds of compute; done fires at completion.
func (c *CPU) Run(coreSeconds float64, done func()) *Job {
	return c.srv.Add(coreSeconds, done)
}

// SetSpeedFactor rescales the processor to factor times its configured rate
// from the current virtual time onward (1 restores it) — the dynamic
// straggler knob: unlike NewCPUWithSpeed it can change mid-run, which fault
// injection uses to degrade and heal machines.
func (c *CPU) SetSpeedFactor(factor float64) { c.srv.setSpeed(factor) }

// Pause stalls every core for d of virtual time — the stop-the-world pause a
// garbage-collection event inflicts on a machine (§7 discussion; the memory
// model's GC knob drives this). In-flight compute is caught up at the
// pre-pause rate first, so the stall is exact; overlapping pauses coalesce to
// the later end time.
func (c *CPU) Pause(d sim.Duration) { c.srv.pause(d) }

// Cancel abandons an in-flight job.
func (c *CPU) Cancel(j *Job) { c.srv.Remove(j) }

// Running reports the number of in-service jobs (may exceed Cores).
func (c *CPU) Running() int { return c.srv.Count() }
