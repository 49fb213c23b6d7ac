package faults

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

func testChaosCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(n, cluster.M2_4XLarge())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fullPlanConfig(machines int) PlanConfig {
	return PlanConfig{
		Machines: machines, Horizon: 60,
		Crashes: 2, Stragglers: 2, DiskDegrades: 1, NICDegrades: 1,
		DiskErrorWindows: 2, FlakyFetchWindows: 2, TaskKills: 2,
	}
}

func TestRandomPlanDeterministicPerSeed(t *testing.T) {
	cfg := fullPlanConfig(4)
	a, err := RandomPlan(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomPlan(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c, err := RandomPlan(43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("full config produced an empty plan")
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("generated plan fails its own validation: %v", err)
	}
}

func TestRandomPlanCapsCrashes(t *testing.T) {
	p, err := RandomPlan(1, PlanConfig{Machines: 3, Crashes: 10})
	if err != nil {
		t.Fatal(err)
	}
	crashes := map[int]bool{}
	for _, e := range p.Events {
		if e.Kind == MachineCrash {
			if crashes[e.Machine] {
				t.Fatalf("machine %d crashes twice", e.Machine)
			}
			crashes[e.Machine] = true
		}
	}
	if len(crashes) != 2 {
		t.Fatalf("%d machines crash on a 3-machine cluster, want 2 (one must survive)", len(crashes))
	}
	// Every recovery follows its machine's crash.
	for _, r := range p.Events {
		if r.Kind != MachineRecover {
			continue
		}
		if !crashes[r.Machine] {
			t.Fatalf("machine %d recovers without crashing", r.Machine)
		}
		for _, c := range p.Events {
			if c.Kind == MachineCrash && c.Machine == r.Machine && r.At <= c.At {
				t.Fatalf("machine %d recovers at %v, before its crash at %v", r.Machine, r.At, c.At)
			}
		}
	}
}

func TestRandomPlanRejectsEmptyCluster(t *testing.T) {
	if _, err := RandomPlan(1, PlanConfig{}); err == nil {
		t.Fatal("RandomPlan accepted Machines=0")
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"negative time", Event{At: -1, Kind: MachineCrash}, "negative time"},
		{"machine out of range", Event{Kind: MachineCrash, Machine: 5}, "targets machine"},
		{"non-positive factor", Event{Kind: MachineSlowdown, Factor: 0}, "positive Factor"},
		{"probability above one", Event{Kind: DiskErrorWindow, Prob: 1.5}, "outside [0,1]"},
		{"negative probability", Event{Kind: FlakyFetchWindow, Prob: -0.1}, "outside [0,1]"},
		{"zero kill count", Event{Kind: TaskKill, Count: 0}, "positive Count"},
	}
	for _, tc := range cases {
		p := Plan{Events: []Event{tc.ev}}
		err := p.Validate(2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not contain %q", tc.name, err, tc.want)
		}
	}
	ok := Plan{Events: []Event{
		{At: 1, Kind: MachineCrash, Machine: 1},
		{At: 2, Kind: MachineSlowdown, Machine: 0, Factor: 0.5, Duration: 3},
		{At: 3, Kind: DiskErrorWindow, Machine: 0, Prob: 0.5, Duration: 5},
		{At: 4, Kind: TaskKill, Machine: 1, Count: 2},
	}}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := MachineCrash; k <= TaskKill; k++ {
		if s := k.String(); strings.HasPrefix(s, "fault-kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if s := Kind(99).String(); s != "fault-kind(99)" {
		t.Errorf("unknown kind renders as %q", s)
	}
}

func TestAttemptFaultWindowMatching(t *testing.T) {
	c := testChaosCluster(t, 2)
	in, err := NewInjector(c, Plan{Seed: 1, Events: []Event{
		{At: 10, Kind: DiskErrorWindow, Machine: 0, Prob: 1, Duration: 10, Reason: "disk err"},
		{At: 10, Kind: FlakyFetchWindow, Machine: 1, Prob: 1, Duration: 10, Reason: "flaky fetch"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	diskTask := &task.Task{Machine: 0, Stage: &task.StageSpec{ID: 0}, DiskReadBytes: 1e6}
	cpuTask := &task.Task{Machine: 0, Stage: &task.StageSpec{ID: 0}}
	fetchTask := &task.Task{Machine: 1, Stage: &task.StageSpec{ID: 1}, Fetches: []task.Fetch{{From: 0, Bytes: 1e6}}}

	if _, _, ok := in.AttemptFault(diskTask, 5); ok {
		t.Fatal("fault before the window opened")
	}
	if _, _, ok := in.AttemptFault(diskTask, 20); ok {
		t.Fatal("fault after the window closed (bound is half-open)")
	}
	if _, _, ok := in.AttemptFault(cpuTask, 15); ok {
		t.Fatal("disk-error window hit a task with no disk I/O")
	}
	reason, after, ok := in.AttemptFault(diskTask, 15)
	if !ok || reason != "disk err" || after <= 0 {
		t.Fatalf("disk task in window: got (%q, %v, %v)", reason, after, ok)
	}
	if _, _, ok := in.AttemptFault(fetchTask, 5); ok {
		t.Fatal("fetch fault before the window opened")
	}
	reason, _, ok = in.AttemptFault(fetchTask, 15)
	if !ok || reason != "flaky fetch" {
		t.Fatalf("fetch task in window: got (%q, %v)", reason, ok)
	}
	// The wrong machine never matches.
	other := &task.Task{Machine: 1, Stage: &task.StageSpec{ID: 0}, DiskReadBytes: 1e6}
	if _, _, ok := in.AttemptFault(other, 15); ok {
		t.Fatal("disk-error window leaked onto another machine")
	}
	if len(in.Log()) != 2 {
		t.Fatalf("log has %d records, want the 2 injected failures", len(in.Log()))
	}
}

func TestAttemptFaultCoinFlipsAreSeeded(t *testing.T) {
	mk := func() *Injector {
		c := testChaosCluster(t, 1)
		in, err := NewInjector(c, Plan{Seed: 7, Events: []Event{
			{At: 0, Kind: DiskErrorWindow, Machine: 0, Prob: 0.5, Duration: 100},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	tk := &task.Task{Machine: 0, Stage: &task.StageSpec{ID: 0}, DiskReadBytes: 1e6}
	var hits int
	for i := 0; i < 200; i++ {
		now := sim.Time(i) * 0.25
		ra, da, oa := a.AttemptFault(tk, now)
		rb, db, ob := b.AttemptFault(tk, now)
		if ra != rb || da != db || oa != ob {
			t.Fatalf("flip %d diverged between identically seeded injectors", i)
		}
		if oa {
			hits++
		}
	}
	if hits == 0 || hits == 200 {
		t.Fatalf("p=0.5 window hit %d/200 attempts — coin not flipping", hits)
	}
}

func TestInstallExecutesPlanOnEngine(t *testing.T) {
	c := testChaosCluster(t, 2)
	in, err := NewInjector(c, Plan{Seed: 1, Events: []Event{
		{At: 1, Kind: MachineCrash, Machine: 1},
		{At: 2, Kind: MachineSlowdown, Machine: 0, Factor: 0.5, Duration: 2},
		{At: 6, Kind: MachineRecover, Machine: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Install(); err != nil {
		t.Fatal(err)
	}
	if err := in.Install(); err != nil { // idempotent: must not double-schedule
		t.Fatal(err)
	}
	c.Engine.Run()
	log := in.Log()
	if len(log) != 4 {
		t.Fatalf("log has %d records, want 4 (crash, slowdown, restore, recover):\n%v", len(log), log)
	}
	wantKinds := []Kind{MachineCrash, MachineSlowdown, MachineSlowdown, MachineRecover}
	for i, r := range log {
		if r.Kind != wantKinds[i] {
			t.Fatalf("record %d is %v, want %v", i, r.Kind, wantKinds[i])
		}
	}
	if log[2].At != 4 {
		t.Fatalf("slowdown restored at %v, want t=4", log[2].At)
	}
	if s := log[0].String(); !strings.Contains(s, "machine-crash") || !strings.Contains(s, "machine=1") {
		t.Fatalf("record renders as %q", s)
	}
}
