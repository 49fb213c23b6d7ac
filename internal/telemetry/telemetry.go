// Package telemetry is the live observability bus: a sampler registered as a
// recurring simulator event captures periodic Snapshots of a running
// cluster — per-machine utilization, per-pool scheduler state, and per-job
// attribution over the trailing window — while the jobs still execute. This
// is the paper's performance-clarity thesis (§6) applied in-run: instead of
// explaining a job after it finishes (internal/trace, post-hoc
// model.Attribute), any moment of an N-job run can be explained while it
// happens, generalizing the Fig. 16 two-job demo to a continuous feed.
//
// Determinism: samples are taken in virtual time by a sim.Ticker, so the
// snapshot stream is a pure function of (workload, cluster config, interval).
// Ticks interleave with device events under the engine's (time, seq)
// tie-break and the capture path only reads simulator state, so runs with and
// without telemetry execute identically, and the stream is bit-identical
// across repeated runs and across sweep --parallel worker counts.
package telemetry

import (
	"repro/internal/cluster"
	"repro/internal/jobsched"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/task"
)

// Config tunes a Sampler. The zero value is usable: 1-second virtual
// interval, 4096-snapshot ring, 8 utilization samples per machine per window.
type Config struct {
	// Interval is the virtual-time spacing between snapshots (default 1s).
	Interval sim.Duration
	// RingSize bounds how many snapshots the sampler retains (default 4096);
	// older snapshots fall off the front. A streaming consumer (OnSnapshot,
	// the JSONL exporter) sees every snapshot regardless.
	RingSize int
	// SamplesPerMachine is the utilization sampling density per window per
	// machine (default 8) — the n passed to metrics.AppendMachineUtilSamples.
	SamplesPerMachine int
	// OnSnapshot, when set, observes every captured snapshot in order — the
	// hook the JSONL streamer and monobench --telemetry attach to. It runs on
	// the simulator goroutine; it must not mutate simulation state.
	OnSnapshot func(*Snapshot)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 1
	}
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	if c.SamplesPerMachine <= 0 {
		c.SamplesPerMachine = 8
	}
	return c
}

// MachineUtil is one machine's mean utilization per resource over a snapshot
// window, in [0, 1]. Resources the machine lacks (diskless spec, no NIC)
// report -1 so a renderer can distinguish "absent" from "idle".
type MachineUtil struct {
	Machine int     `json:"machine"`
	CPU     float64 `json:"cpu"`
	Disk    float64 `json:"disk"`
	Net     float64 `json:"net"`
	// Mem is the memory-bandwidth utilization on machines that model memory
	// as a fourth resource; nil (and absent from JSON) everywhere else, so
	// streams from memoryless clusters are byte-identical to before the
	// memory model existed.
	Mem *float64 `json:"mem,omitempty"`
}

// PoolStat is one scheduling pool's live state: admission-queue depth,
// admitted jobs, and running/pending task counts.
type PoolStat struct {
	Name    string `json:"name"`
	Queued  int    `json:"queued"`
	Active  int    `json:"active"`
	Running int    `json:"running"`
	Pending int    `json:"pending"`
}

// JobStat is one job's live state plus its attribution over the snapshot
// window: the monotask-exact resource shares and ideal times of
// model.Attribute, computed while the job runs.
type JobStat struct {
	Name      string `json:"name"`
	Pool      string `json:"pool"`
	LiveTasks int    `json:"live_tasks"`
	Done      bool   `json:"done"`
	Failed    bool   `json:"failed"`

	Usage                         metrics.MeasuredUsage `json:"usage"`
	CPUShare, DiskShare, NetShare float64
	IdealCPU, IdealDisk, IdealNet float64
	// MemShare and IdealMem stay zero — and out of the JSON stream — on
	// clusters without the memory model.
	MemShare float64 `json:"MemShare,omitempty"`
	IdealMem float64 `json:"IdealMem,omitempty"`
}

// Snapshot is one captured moment of a run: everything the sampler could
// read over the window [T0, T1). Field order (and every slice's order) is
// fixed, so encoding/json output is byte-stable.
type Snapshot struct {
	// Seq numbers snapshots from 1 in capture order.
	Seq int `json:"seq"`
	// T0, T1 bound the trailing window; windows tile exactly (T0 of each
	// snapshot equals T1 of the previous), which is why windowed attributions
	// sum to the whole run within rounding.
	T0 sim.Time `json:"t0"`
	T1 sim.Time `json:"t1"`

	Machines []MachineUtil `json:"machines"`
	Pools    []PoolStat    `json:"pools,omitempty"`
	Jobs     []JobStat     `json:"jobs,omitempty"`

	// Stage is the window's bottleneck ranking (Fig. 6's summary, live).
	Stage metrics.StageUtilization `json:"stage"`

	// Final marks the tick at which the engine had drained: all bound work
	// complete. Cumulative then holds the whole-run attribution [0, T1),
	// which a post-hoc model.Attribute call over the same window must equal
	// exactly — the live-equals-post-hoc property the golden test pins.
	Final      bool      `json:"final,omitempty"`
	Cumulative []JobStat `json:"cumulative,omitempty"`
}

// Sampler captures Snapshots of one cluster on a recurring simulator event.
// It is single-threaded, like the engine it rides on: all methods must be
// called from the simulation's goroutine.
type Sampler struct {
	cfg  Config
	c    *cluster.Cluster
	d    *jobsched.Driver
	res  model.Resources
	tick *sim.Ticker

	ring  []Snapshot
	start int // ring read position
	count int
	seq   int
	lastT sim.Time

	// cpu, disk, net and mem hold one tick's utilization samples per
	// resource; capture refills them every tick, reusing their storage.
	cpu, disk, net, mem []float64
}

// Start attaches a sampler to c's engine, sampling every cfg.Interval of
// virtual time. d may be nil (no scheduler state yet); Bind attaches one
// later. The first window opens at the engine's current time.
func Start(c *cluster.Cluster, d *jobsched.Driver, cfg Config) *Sampler {
	cfg = cfg.withDefaults()
	s := &Sampler{
		cfg:   cfg,
		c:     c,
		d:     d,
		res:   model.ClusterResources(c),
		lastT: c.Engine.Now(),
	}
	s.tick = c.Engine.Every(cfg.Interval, s.capture)
	return s
}

// Bind points the sampler at a driver and re-arms the ticker if the engine
// had drained — the pattern for a session that builds a fresh driver per
// action over one long-lived engine (monospark.Context). The ring persists
// across binds, so the stream spans the whole session.
func (s *Sampler) Bind(d *jobsched.Driver) {
	s.d = d
	s.tick.Kick()
}

// Stop halts sampling permanently. Snapshots already captured remain
// readable.
func (s *Sampler) Stop() { s.tick.Stop() }

// capture is the tick body: summarize the window [lastT, now) and advance.
func (s *Sampler) capture() {
	now := s.c.Engine.Now()
	t0, t1 := s.lastT, now
	s.lastT = now
	s.seq++
	snap := Snapshot{Seq: s.seq, T0: t0, T1: t1}

	// Every timeline is sampled once: each resource's samples for all
	// machines go into one reused buffer in machine order (UtilSamples'
	// layout), each machine's mean is read from its own stretch, and the
	// stage ranking then takes the whole buffers.
	n := s.cfg.SamplesPerMachine
	cpu, disk, net, mem := s.cpu[:0], s.disk[:0], s.net[:0], s.mem[:0]
	modelsMem := false
	snap.Machines = make([]MachineUtil, 0, len(s.c.Machines))
	for _, m := range s.c.Machines {
		mu := MachineUtil{Machine: m.ID}
		cpu, mu.CPU = appendMean(cpu, m, metrics.CPU, t0, t1, n)
		disk, mu.Disk = appendMean(disk, m, metrics.Disk, t0, t1, n)
		net, mu.Net = appendMean(net, m, metrics.Network, t0, t1, n)
		// The memory series only exists on machines that model it; a nil
		// pointer keeps the field out of the stream everywhere else.
		i := len(mem)
		mem = metrics.AppendMachineUtilSamples(mem, m, metrics.Memory, t0, t1, n)
		if len(mem) > i {
			v := meanOrAbsent(mem[i:])
			mu.Mem = &v
		}
		modelsMem = modelsMem || m.Memory != nil
		snap.Machines = append(snap.Machines, mu)
	}
	s.cpu, s.disk, s.net, s.mem = cpu, disk, net, mem
	// As in metrics.StageUtil, only clusters that model memory rank it.
	names := [...]metrics.ResourceName{metrics.CPU, metrics.Disk, metrics.Network, metrics.Memory}
	series := [...][]float64{cpu, disk, net, mem}
	ranked := len(names) - 1
	if modelsMem {
		ranked++
	}
	snap.Stage = metrics.RankStage(names[:ranked], series[:ranked])

	if s.d != nil {
		for _, name := range s.d.PoolNames() {
			snap.Pools = append(snap.Pools, PoolStat{
				Name:    name,
				Queued:  s.d.QueuedJobs(name),
				Active:  s.d.ActiveJobs(name),
				Running: s.d.RunningTasks(name),
				Pending: s.d.PendingTasks(name),
			})
		}
		snap.Jobs = s.jobStats(t0, t1)
	}

	// The tick that finds the queue empty is the last of this binding: all
	// bound work is complete, so the cumulative attribution here is the
	// whole-run answer a post-hoc Attribute call would give.
	if s.c.Engine.Len() == 0 {
		snap.Final = true
		if s.d != nil {
			snap.Cumulative = s.jobStats(0, now)
		}
	}

	s.push(snap)
	if s.cfg.OnSnapshot != nil {
		s.cfg.OnSnapshot(&snap)
	}
}

// jobStats attributes the window [t0, t1) across the driver's jobs: the live
// resource shares and per-resource ideal times of model.Attribute, joined
// with each job's scheduler state.
func (s *Sampler) jobStats(t0, t1 sim.Time) []JobStat {
	handles := s.d.Jobs()
	if len(handles) == 0 {
		return nil
	}
	jms := make([]*task.JobMetrics, len(handles))
	for i, h := range handles {
		jms[i] = h.Metrics
	}
	atts := model.Attribute(jms, t0, t1, s.res)
	out := make([]JobStat, len(handles))
	for i, h := range handles {
		a := atts[i]
		out[i] = JobStat{
			Name:      h.Spec.Name,
			Pool:      h.Pool,
			LiveTasks: h.LiveTasks(),
			Done:      h.Done(),
			Failed:    h.Failed(),
			Usage:     a.Usage,
			CPUShare:  a.CPUShare,
			DiskShare: a.DiskShare,
			NetShare:  a.NetShare,
			IdealCPU:  a.IdealCPU,
			IdealDisk: a.IdealDisk,
			IdealNet:  a.IdealNet,
			MemShare:  a.MemShare,
			IdealMem:  a.IdealMem,
		}
	}
	return out
}

// push appends snap to the bounded ring, evicting the oldest when full.
func (s *Sampler) push(snap Snapshot) {
	if len(s.ring) < s.cfg.RingSize {
		s.ring = append(s.ring, snap)
		s.count = len(s.ring)
		return
	}
	// Ring at capacity: overwrite the oldest slot.
	s.ring[s.start] = snap
	s.start = (s.start + 1) % len(s.ring)
}

// Snapshots returns the retained snapshots oldest-first (a copy).
func (s *Sampler) Snapshots() []Snapshot {
	out := make([]Snapshot, 0, s.count)
	for i := 0; i < s.count; i++ {
		out = append(out, s.ring[(s.start+i)%len(s.ring)])
	}
	return out
}

// Latest returns the most recent snapshot, if any.
func (s *Sampler) Latest() (Snapshot, bool) {
	if s.count == 0 {
		return Snapshot{}, false
	}
	return s.ring[(s.start+s.count-1)%len(s.ring)], true
}

// appendMean appends machine m's samples of resource r to buf and returns
// the extended buffer with the mean of m's samples, or -1 when m lacks r.
func appendMean(buf []float64, m *cluster.Machine, r metrics.ResourceName, t0, t1 sim.Time, n int) ([]float64, float64) {
	i := len(buf)
	buf = metrics.AppendMachineUtilSamples(buf, m, r, t0, t1, n)
	return buf, meanOrAbsent(buf[i:])
}

// meanOrAbsent averages one machine's samples of a resource, or returns -1
// when there are none: the machine lacks the resource or the window is
// empty.
func meanOrAbsent(samples []float64) float64 {
	if len(samples) == 0 {
		return -1
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
