// Package cluster assembles device models into virtual machines and
// clusters. A Cluster owns one simulation engine; every device on every
// machine schedules against that engine, so cross-machine timing (shuffles,
// stragglers) is globally consistent.
package cluster

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/units"
)

// MachineSpec describes one worker machine. SpeedFactor (default 1) scales
// the machine's CPU rate, disk bandwidths, and link bandwidth together —
// the straggler/heterogeneity knob: a machine with SpeedFactor 0.5 is a
// uniformly degraded node.
type MachineSpec struct {
	// Cores is the number of CPU cores.
	Cores int
	// Disks lists the machine's drives, one spec each; a diskless machine
	// has none.
	Disks []resource.DiskSpec
	// NetBW is the NIC's rate in bytes/second, full duplex.
	NetBW float64
	// MemBytes is the memory the machine's tasks may charge (MemAlloc
	// records the high-water mark against it).
	MemBytes int64
	// SpeedFactor scales the CPU rate, disk bandwidths and link bandwidth
	// together; zero or negative means 1.
	SpeedFactor float64

	// Mem enables the fourth-resource memory model (bandwidth ceiling,
	// capacity-pressure spill, seeded GC pauses). The zero value disables it
	// entirely — the machine behaves exactly as before this knob existed.
	Mem resource.MemorySpec
}

// Degraded returns a copy of the spec slowed to the given factor.
func (s MachineSpec) Degraded(factor float64) MachineSpec {
	s.SpeedFactor = factor
	return s
}

// speed returns the effective factor (zero value means 1).
func (s MachineSpec) speed() float64 {
	if s.SpeedFactor <= 0 {
		return 1
	}
	return s.SpeedFactor
}

// Validate reports a descriptive error for an unusable spec.
func (s MachineSpec) Validate() error {
	if s.Cores <= 0 {
		return fmt.Errorf("cluster: spec needs cores, got %d", s.Cores)
	}
	if s.NetBW <= 0 {
		return fmt.Errorf("cluster: spec needs network bandwidth, got %v", s.NetBW)
	}
	if s.MemBytes <= 0 {
		return fmt.Errorf("cluster: spec needs memory, got %d", s.MemBytes)
	}
	for i, d := range s.Disks {
		if d.SeqBW <= 0 {
			return fmt.Errorf("cluster: disk %d has no bandwidth", i)
		}
	}
	if s.Mem.BandwidthBPS < 0 || s.Mem.CapacityBytes < 0 ||
		s.Mem.GCEveryBytes < 0 || s.Mem.GCPauseSec < 0 {
		return fmt.Errorf("cluster: negative memory-model knob")
	}
	return nil
}

// M2_4XLarge mirrors the paper's HDD instances: 8 vCPUs, ~60 GB memory, two
// hard disk drives, 1 Gb/s network (§5.1).
func M2_4XLarge() MachineSpec {
	return MachineSpec{
		Cores:    8,
		Disks:    []resource.DiskSpec{resource.DefaultHDD(), resource.DefaultHDD()},
		NetBW:    units.Gbps(1),
		MemBytes: 60 * units.GB,
	}
}

// I2_2XLarge mirrors the paper's SSD instances: 8 vCPUs, ~60 GB memory, one
// or two solid-state drives, 1 Gb/s network (§5.1).
func I2_2XLarge(ssds int) MachineSpec {
	disks := make([]resource.DiskSpec, ssds)
	for i := range disks {
		disks[i] = resource.DefaultSSD()
	}
	return MachineSpec{
		Cores:    8,
		Disks:    disks,
		NetBW:    units.Gbps(1),
		MemBytes: 60 * units.GB,
	}
}

// FatNode is the scale-up machine the data-volume studies ran on: one box
// with many cores, SSDs, a fast NIC — and, unlike the scale-out specs, an
// enabled memory model, because on a single fat node memory bandwidth and GC
// are what the trio of CPU/disk/network cannot explain. 32 cores, 4 SSDs,
// 10 Gb/s, 25 GB/s memory bandwidth, 48 GB usable task-buffer capacity,
// a GC pause every ~16 GB allocated.
func FatNode() MachineSpec {
	disks := make([]resource.DiskSpec, 4)
	for i := range disks {
		disks[i] = resource.DefaultSSD()
	}
	return MachineSpec{
		Cores:    32,
		Disks:    disks,
		NetBW:    units.Gbps(10),
		MemBytes: 64 * units.GB,
		Mem: resource.MemorySpec{
			BandwidthBPS:  25e9,
			CapacityBytes: 48 * units.GB,
			GCEveryBytes:  16 * units.GB,
			GCPauseSec:    0.4,
			GCSeed:        1,
		},
	}
}

// Machine is one assembled worker.
type Machine struct {
	// ID is the machine's index in its cluster and its fabric.
	ID int
	// Spec is the specification the machine was built from.
	Spec MachineSpec
	// CPU is the machine's processor, scaled by Spec's speed factor.
	CPU *resource.CPU
	// Disks holds one drive per Spec.Disks entry, in the same order.
	Disks []*resource.Disk
	// NIC is the machine's interface on the cluster's fabric.
	NIC *netsim.NIC

	// Memory is the fourth-resource model; nil on machines whose spec left
	// it disabled (the default), so every consumer must gate on nil.
	Memory *resource.Memory

	memInUse int64
	memPeak  int64

	timelinesStopped bool
}

// stopTimelines stops every timeline of m's devices (see
// Cluster.StopTimelines).
func (m *Machine) stopTimelines() {
	m.CPU.Util.Stop()
	for _, d := range m.Disks {
		d.Util.Stop()
		d.ReadCum.Stop()
		d.WriteCum.Stop()
	}
	m.NIC.UtilOut.Stop()
	m.NIC.UtilIn.Stop()
	m.NIC.BytesInCum.Stop()
	if m.Memory != nil {
		m.Memory.Util.Stop()
		m.Memory.TrafficCum.Stop()
	}
	m.timelinesStopped = true
}

// TimelinesStopped reports whether the machine's timelines are stopped
// (Cluster.StopTimelines); executors built on it then record none of their
// own either.
func (m *Machine) TimelinesStopped() bool { return m.timelinesStopped }

// MemAlloc charges bytes of memory. It never fails — the paper's MonoSpark
// does not regulate memory either (§3.5) — but the high-water mark is
// recorded so experiments can report pressure.
func (m *Machine) MemAlloc(bytes int64) {
	m.memInUse += bytes
	if m.memInUse > m.memPeak {
		m.memPeak = m.memInUse
	}
}

// MemFree releases bytes of memory.
func (m *Machine) MemFree(bytes int64) {
	m.memInUse -= bytes
	if m.memInUse < 0 {
		panic("cluster: memory freed twice")
	}
}

// MemInUse reports the machine's current memory use.
func (m *Machine) MemInUse() int64 { return m.memInUse }

// MemPeak reports the machine's high-water memory use.
func (m *Machine) MemPeak() int64 { return m.memPeak }

// AggDiskBW returns the machine's total sequential disk bandwidth.
func (m *Machine) AggDiskBW() float64 {
	var bw float64
	for _, d := range m.Disks {
		bw += d.Spec().SeqBW
	}
	return bw
}

// Cluster is a set of identical machines over a full-bisection fabric and a
// single simulation engine.
type Cluster struct {
	// Engine is the one simulation engine every device schedules against.
	Engine *sim.Engine
	// Machines holds the workers, indexed by machine ID.
	Machines []*Machine
	// Fabric is the full-bisection network joining the machines' NICs.
	Fabric *netsim.Fabric
	spec   MachineSpec
}

// New builds a cluster of n machines with the given spec.
func New(n int, spec MachineSpec) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", n)
	}
	specs := make([]MachineSpec, n)
	for i := range specs {
		specs[i] = spec
	}
	return NewHetero(specs)
}

// NewHetero builds a cluster from per-machine specs — degraded nodes,
// mixed disk types, or uneven links. Cluster-wide aggregates (TotalCores,
// TotalDiskBW, TotalNetBW) use each machine's own shape.
func NewHetero(specs []MachineSpec) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: need at least one machine")
	}
	linkBWs := make([]float64, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("machine %d: %w", i, err)
		}
		linkBWs[i] = s.NetBW * s.speed()
	}
	eng := sim.NewEngine()
	c := &Cluster{Engine: eng, Fabric: netsim.NewFabricBW(eng, linkBWs), spec: specs[0]}
	for i, s := range specs {
		m := &Machine{
			ID:   i,
			Spec: s,
			CPU:  resource.NewCPUWithSpeed(eng, s.Cores, s.speed()),
			NIC:  c.Fabric.NIC(i),
		}
		for _, ds := range s.Disks {
			ds.SeqBW *= s.speed()
			m.Disks = append(m.Disks, resource.NewDisk(eng, ds))
		}
		if s.Mem.Enabled() {
			ms := s.Mem
			ms.BandwidthBPS *= s.speed()
			// Mix the machine ID into the GC seed so identical machines do
			// not pause in lockstep; the mix is fixed, so replays see the
			// same schedule.
			ms.GCSeed = ms.GCSeed*1000003 + int64(i) + 1
			m.Memory = resource.NewMemory(eng, ms)
			cpu := m.CPU
			m.Memory.OnGC(func(pause sim.Duration) { cpu.Pause(pause) })
		}
		c.Machines = append(c.Machines, m)
	}
	return c, nil
}

// MustNew is New for static configurations that cannot fail.
func MustNew(n int, spec MachineSpec) *Cluster {
	c, err := New(n, spec)
	if err != nil {
		panic(err)
	}
	return c
}

// SetMachineSpeed rescales machine m's CPU, disks, and NIC to factor times
// their configured rates from the current virtual time onward; factor 1
// restores the machine. Unlike MachineSpec.Degraded (fixed at construction)
// this is the dynamic straggler knob fault injection uses: a machine can slow
// down mid-job and heal later, and every device model catches up in-flight
// work at the old rate before applying the new one.
func (c *Cluster) SetMachineSpeed(m int, factor float64) {
	mach := c.Machines[m]
	mach.CPU.SetSpeedFactor(factor)
	for _, d := range mach.Disks {
		d.SetSpeedFactor(factor)
	}
	if mach.Memory != nil {
		mach.Memory.SetSpeedFactor(factor)
	}
	c.Fabric.SetLinkSpeed(m, factor)
}

// StopTimelines stops every timeline recorded for c's machines: the
// utilization of CPUs, disks, memory and both NIC directions, the disk, NIC
// and memory byte counters, and the queue lengths of the monotasks workers
// built on them afterwards. Readers then see empty timelines. Simulated
// behaviour does not change, and neither do the metric records the §6 model
// reads; only the timelines are not kept. A run that samples them
// (run.Options.Telemetry) refuses a stopped cluster.
func (c *Cluster) StopTimelines() {
	for _, m := range c.Machines {
		m.stopTimelines()
	}
}

// TimelinesStopped reports whether StopTimelines was called.
func (c *Cluster) TimelinesStopped() bool { return c.Machines[0].timelinesStopped }

// Spec returns the per-machine specification.
func (c *Cluster) Spec() MachineSpec { return c.spec }

// Size reports the number of machines.
func (c *Cluster) Size() int { return len(c.Machines) }

// TotalCores reports the cluster-wide core count — the denominator of the
// performance model's ideal CPU time (§6.1).
func (c *Cluster) TotalCores() int {
	n := 0
	for _, m := range c.Machines {
		n += m.Spec.Cores
	}
	return n
}

// TotalDiskBW reports the cluster-wide sequential disk bandwidth — the
// denominator of the ideal disk time (§6.1).
func (c *Cluster) TotalDiskBW() float64 {
	var bw float64
	for _, m := range c.Machines {
		bw += m.AggDiskBW()
	}
	return bw
}

// TotalNetBW reports the cluster-wide unidirectional network bandwidth —
// the denominator of the ideal network time (§6.1).
func (c *Cluster) TotalNetBW() float64 {
	var bw float64
	for _, m := range c.Machines {
		bw += m.NIC.IngressBW()
	}
	return bw
}

// TotalMemBW reports the cluster-wide memory-bandwidth ceiling — the
// denominator of the ideal memory time. Zero when no machine enables the
// memory model.
func (c *Cluster) TotalMemBW() float64 {
	var bw float64
	for _, m := range c.Machines {
		if m.Memory != nil {
			bw += m.Memory.Spec().BandwidthBPS
		}
	}
	return bw
}
