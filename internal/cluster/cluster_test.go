package cluster

import (
	"fmt"
	"testing"

	"repro/internal/resource"
	"repro/internal/units"
)

func TestNewClusterWiring(t *testing.T) {
	c, err := New(5, M2_4XLarge())
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 5 {
		t.Fatalf("Size = %d, want 5", c.Size())
	}
	if c.TotalCores() != 40 {
		t.Fatalf("TotalCores = %d, want 40", c.TotalCores())
	}
	for i, m := range c.Machines {
		if m.ID != i {
			t.Fatalf("machine %d has ID %d", i, m.ID)
		}
		if len(m.Disks) != 2 {
			t.Fatalf("machine %d has %d disks, want 2", i, len(m.Disks))
		}
		if m.NIC.ID() != i {
			t.Fatalf("machine %d wired to NIC %d", i, m.NIC.ID())
		}
	}
}

func TestAggregateBandwidths(t *testing.T) {
	c := MustNew(20, M2_4XLarge())
	// 20 machines × 2 HDD × 100 MB/s.
	if got := c.TotalDiskBW(); got != 20*2*100e6 {
		t.Fatalf("TotalDiskBW = %v, want 4e9", got)
	}
	if got := c.TotalNetBW(); got != 20*units.Gbps(1) {
		t.Fatalf("TotalNetBW = %v, want 2.5e9", got)
	}
}

func TestPresets(t *testing.T) {
	m2 := M2_4XLarge()
	if m2.Cores != 8 || len(m2.Disks) != 2 || m2.Disks[0].Kind != resource.HDD {
		t.Fatalf("M2_4XLarge = %+v", m2)
	}
	i2 := I2_2XLarge(2)
	if i2.Cores != 8 || len(i2.Disks) != 2 || i2.Disks[0].Kind != resource.SSD {
		t.Fatalf("I2_2XLarge = %+v", i2)
	}
	if len(I2_2XLarge(1).Disks) != 1 {
		t.Fatal("I2_2XLarge(1) should have one SSD")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []MachineSpec{
		{Cores: 0, NetBW: 1, MemBytes: 1},
		{Cores: 1, NetBW: 0, MemBytes: 1},
		{Cores: 1, NetBW: 1, MemBytes: 0},
		{Cores: 1, NetBW: 1, MemBytes: 1, Disks: []resource.DiskSpec{{}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated but should not have", i)
		}
	}
	if _, err := New(0, M2_4XLarge()); err == nil {
		t.Error("New(0, ...) should fail")
	}
	if err := M2_4XLarge().Validate(); err != nil {
		t.Errorf("M2_4XLarge invalid: %v", err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := MustNew(1, M2_4XLarge())
	m := c.Machines[0]
	m.MemAlloc(100)
	m.MemAlloc(50)
	if m.MemInUse() != 150 || m.MemPeak() != 150 {
		t.Fatalf("in use %d peak %d, want 150/150", m.MemInUse(), m.MemPeak())
	}
	m.MemFree(100)
	if m.MemInUse() != 50 || m.MemPeak() != 150 {
		t.Fatalf("in use %d peak %d, want 50/150", m.MemInUse(), m.MemPeak())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.MemFree(100)
}

func TestDevicesShareOneEngine(t *testing.T) {
	c := MustNew(2, I2_2XLarge(1))
	var cpuDone, diskDone, netDone bool
	c.Machines[0].CPU.Run(1, func() { cpuDone = true })
	c.Machines[1].Disks[0].Read(100e6, func() { diskDone = true })
	c.Fabric.Transfer(0, 1, 1e6, func() { netDone = true })
	c.Engine.Run()
	if !cpuDone || !diskDone || !netDone {
		t.Fatalf("cpu=%v disk=%v net=%v; all devices must run on the shared engine",
			cpuDone, diskDone, netDone)
	}
}

// TestStopTimelines drives every device of a memory-model cluster after
// StopTimelines and checks that none of its timelines recorded a point,
// while the devices' own byte counters still count.
func TestStopTimelines(t *testing.T) {
	c := MustNew(2, FatNode())
	if c.TimelinesStopped() {
		t.Fatal("a new cluster reports stopped timelines")
	}
	c.StopTimelines()
	if !c.TimelinesStopped() || !c.Machines[1].TimelinesStopped() {
		t.Fatal("StopTimelines left the cluster or a machine recording")
	}
	m := c.Machines[0]
	m.CPU.Run(1, func() {})
	m.Disks[0].Read(100e6, func() {})
	m.Disks[1].Write(100e6, func() {})
	m.Memory.Stream(1e9, 0, func() {})
	c.Fabric.Transfer(0, 1, 1e6, func() {})
	c.Engine.Run()
	if m.Disks[0].BytesRead() != 100e6 || m.Disks[1].BytesWritten() != 100e6 {
		t.Fatalf("disk counters read %d and wrote %d bytes, want 1e8 each", m.Disks[0].BytesRead(), m.Disks[1].BytesWritten())
	}
	for i, m := range c.Machines {
		timelines := map[string]*resource.Tracker{
			"cpu": &m.CPU.Util, "nic out": &m.NIC.UtilOut, "nic in": &m.NIC.UtilIn,
			"nic bytes in": &m.NIC.BytesInCum, "memory": &m.Memory.Util, "memory bytes": &m.Memory.TrafficCum,
		}
		for j, d := range m.Disks {
			timelines[fmt.Sprint("disk ", j)] = &d.Util
			timelines[fmt.Sprint("disk ", j, " bytes read")] = &d.ReadCum
			timelines[fmt.Sprint("disk ", j, " bytes written")] = &d.WriteCum
		}
		for name, tr := range timelines {
			if n := tr.Len(); n != 0 {
				t.Errorf("machine %d: stopped %s timeline holds %d points", i, name, n)
			}
		}
	}
}
