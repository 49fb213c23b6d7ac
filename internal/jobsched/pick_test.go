package jobsched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/sim"
	"repro/internal/task"
)

// This file checks the driver's task pick and its reduce tasks' fetch lists
// against references that recompute everything from scratch at every use.

// referencePickTask is the pick path without any index: it recomputes every
// pool's and job's running attempts from the stages, asks every active job
// of a pool for a task and takes the fewest-running one (fair share) or the
// first in dispatch order (FIFO), and scans each stage's pending list with
// IsLocal before falling back to delay scheduling.
func referencePickTask(d *Driver, w int) (*stageState, int) {
	running := func(h *JobHandle) int {
		n := 0
		for _, st := range h.stages {
			n += st.running
		}
		return n
	}
	deficit := func(p *poolState) float64 {
		n := 0
		for _, h := range p.active {
			n += running(h)
		}
		return float64(n) / p.cfg.Weight
	}
	pools := append([]*poolState(nil), d.pools...)
	sort.SliceStable(pools, func(i, j int) bool { return deficit(pools[i]) < deficit(pools[j]) })
	for _, p := range pools {
		jobs := append([]*JobHandle(nil), p.active...)
		if p.cfg.Policy == FIFO {
			sort.Slice(jobs, func(i, j int) bool { return dispatchBefore(jobs[i], jobs[j]) })
			for _, h := range jobs {
				if st, pos, ok := referencePickFromJob(d, h, w); ok {
					return st, pos
				}
			}
			continue
		}
		var best *JobHandle
		var bestSt *stageState
		bestPos, bestRunning := 0, 0
		for _, h := range jobs {
			st, pos, ok := referencePickFromJob(d, h, w)
			if !ok {
				continue
			}
			r := running(h)
			if best == nil || r < bestRunning || (r == bestRunning && dispatchBefore(h, best)) {
				best, bestSt, bestPos, bestRunning = h, st, pos, r
			}
		}
		if best != nil {
			return bestSt, bestPos
		}
	}
	return nil, 0
}

func referencePickFromJob(d *Driver, h *JobHandle, w int) (*stageState, int, bool) {
	if h.finished() {
		return nil, 0, false
	}
	for _, st := range h.stages {
		if st.waitingOn != 0 || len(st.pending) == 0 {
			continue
		}
		if st.spec.InputBlocks == nil {
			return st, 0, true
		}
		for pos, ti := range st.pending {
			if st.spec.InputBlocks[ti].IsLocal(w) {
				return st, pos, true
			}
		}
		for pos, ti := range st.pending {
			if !d.hasFreeHome(st.spec.InputBlocks[ti].Replicas) {
				return st, pos, true
			}
		}
	}
	return nil, 0, false
}

// referenceFetches plans reducer r of st from the driver's own bookkeeping,
// independently of the shuffle tracker: every parent task with a winning
// attempt holds ShuffleOutBytes on the machine that attempt ran on, and
// reducer r takes ⌊b/R⌋ of it plus one byte while r < b mod R. Shares are
// summed per (machine, parent stage, in-memory) and emitted in that order,
// zero totals skipped.
func referenceFetches(st *stageState, r int) []task.Fetch {
	type key struct {
		machine, stage int
		inMem          bool
	}
	agg := map[key]int64{}
	nr := int64(st.spec.NumTasks)
	for _, pid := range st.spec.ParentIDs {
		ps := st.job.stages[pid]
		for ti, done := range ps.doneTasks {
			if !done {
				continue
			}
			b := ps.spec.ShuffleOutBytes
			per := b / nr
			if int64(r) < b%nr {
				per++
			}
			if per > 0 {
				agg[key{ps.metrics.Tasks[ti].Machine, pid, ps.spec.ShuffleInMemory}] += per
			}
		}
	}
	keys := make([]key, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		return !a.inMem && b.inMem
	})
	out := make([]task.Fetch, 0, len(keys))
	for _, k := range keys {
		out = append(out, task.Fetch{From: k.machine, Bytes: agg[k], FromMem: k.inMem, Stage: k.stage})
	}
	return out
}

// gauntletExec wraps an executor so a test sees every launch as it happens,
// in the middle of the driver's scheduling pass.
type gauntletExec struct {
	task.Executor
	onLaunch func(*task.Task)
}

func (e *gauntletExec) Launch(t *task.Task, done func(*task.TaskMetrics)) {
	e.onLaunch(t)
	e.Executor.Launch(t, done)
}

// gauntletFaults fails every attempt on machine 4 for a while (driving it
// into exclusion) and a seeded few percent of all other attempts.
type gauntletFaults struct{ rng *rand.Rand }

func (f *gauntletFaults) AttemptFault(t *task.Task, now sim.Time) (string, sim.Duration, bool) {
	if t.Machine == 4 && now >= 6 && now < 10 {
		return "flaky machine", 0.2, true
	}
	if f.rng.Float64() < 0.04 {
		return "transient fault", 0.1, true
	}
	return "", 0, false
}

// pickGauntletStats counts what one gauntlet run exercised, so the test can
// tell a vacuous pass from a real one.
type pickGauntletStats struct {
	picks, reduceLaunches, reruns, respeculated, jobsDone, jobsFailed int
	sawExcluded                                                       bool
}

// runPickGauntlet runs a seeded multi-pool stream under every failure path
// the driver has and checks, at every launch and after every engine event,
// that pickTask agrees with referencePickTask for each available worker,
// that every job's and pool's running count equals the sum over its stages,
// and that every launched reduce task's fetches match referenceFetches.
func runPickGauntlet(t *testing.T, seed int64) pickGauntletStats {
	t.Helper()
	const n = 5
	rng := rand.New(rand.NewSource(seed))
	c := testCluster(t, n)
	fs, err := dfs.New(dfs.Config{Machines: n, DisksPerMachine: 1, BlockSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGroup(c, core.Options{})
	var d *Driver
	var stats pickGauntletStats
	comparePicks := func(where string, needFree bool) {
		for w := range d.execs {
			if !d.available(w) || (needFree && d.free[w] == 0) {
				continue
			}
			refSt, refPos := referencePickTask(d, w)
			st, pos := d.pickTask(w)
			if st != refSt || (st != nil && pos != refPos) {
				t.Fatalf("seed %d %s at t=%v, worker %d: pickTask chose %s, reference %s",
					seed, where, c.Engine.Now(), w, describePick(st, pos), describePick(refSt, refPos))
			}
			if st != nil {
				stats.picks++
			}
		}
	}
	onLaunch := func(tk *task.Task) {
		comparePicks("mid-pass", true)
		var st *stageState
		for _, h := range d.jobs {
			for _, s := range h.stages {
				if s.spec == tk.Stage {
					st = s
				}
			}
		}
		if st == nil {
			t.Fatalf("seed %d: launched task of unknown stage %q", seed, tk.Stage.Name)
		}
		if !tk.Stage.HasShuffleInput() {
			if st.metrics.Tasks[tk.Index] != nil && !st.doneTasks[tk.Index] {
				stats.reruns++ // its earlier output was lost
			}
			return
		}
		stats.reduceLaunches++
		want := referenceFetches(st, tk.Index)
		if len(tk.Fetches) != len(want) {
			t.Fatalf("seed %d t=%v: reduce %s/%d fetches %+v, reference %+v", seed, c.Engine.Now(), st.job.Spec.Name, tk.Index, tk.Fetches, want)
		}
		for i := range want {
			if tk.Fetches[i] != want[i] {
				t.Fatalf("seed %d t=%v: reduce %s/%d fetches %+v, reference %+v", seed, c.Engine.Now(), st.job.Spec.Name, tk.Index, tk.Fetches, want)
			}
		}
	}
	execs := make([]task.Executor, n)
	for i, w := range g.Workers {
		execs[i] = &gauntletExec{Executor: w, onLaunch: onLaunch}
	}
	d, err = NewWithConfig(c, fs, execs, Config{
		Speculation:          true,
		MaxTaskFailures:      40,
		ExcludeAfterFailures: 3,
		FetchRetryTimeout:    8,
		Pools: []PoolConfig{
			{Name: "fairA", Weight: 2},
			{Name: "fairB", Weight: 1},
			{Name: "fifo", Policy: FIFO, MaxConcurrentJobs: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultInjector(&gauntletFaults{rng: rand.New(rand.NewSource(seed))})

	pools := []string{"fairA", "fairB", "fifo"}
	var at sim.Time
	for i := 0; i < 15; i++ {
		replication := 1
		if i%2 == 1 {
			replication = 3
		}
		f, err := fs.Create(fmt.Sprintf("in%d", i), int64(6+rng.Intn(12))<<23, replication)
		if err != nil {
			t.Fatal(err)
		}
		spec := &task.JobSpec{Name: fmt.Sprintf("g%d", i), Stages: []*task.StageSpec{
			{ID: 0, Name: "map", NumTasks: len(f.Blocks), InputBlocks: f.Blocks, OpCPU: 0.3 + 0.5*rng.Float64(),
				ShuffleOutBytes: int64(1+rng.Intn(6))<<20 + int64(rng.Intn(1000)), ShuffleInMemory: i%3 == 0},
			{ID: 1, Name: "reduce", NumTasks: 3 + rng.Intn(10), ParentIDs: []int{0}, OpCPU: 0.5 + rng.Float64(), OutputBytes: 1 << 20},
		}}
		if i%4 == 3 {
			// A join: the reduce reads an in-memory stage as well.
			spec.Stages[1].ParentIDs = nil
			spec.Stages[1].InputFromMem, spec.Stages[1].InputBytesPerTask = true, 4<<20
			spec.Stages[1].ShuffleOutBytes = int64(rng.Intn(3)) << 20
			spec.Stages[1].OutputBytes = 0
			spec.Stages = append(spec.Stages, &task.StageSpec{
				ID: 2, Name: "join", NumTasks: 4 + rng.Intn(5), ParentIDs: []int{1, 0}, OpCPU: 0.7, OutputBytes: 1 << 20,
			})
		}
		opts := SubmitOptions{Pool: pools[i%3], Priority: rng.Intn(3)}
		if rng.Intn(2) == 0 {
			opts.Deadline = at + sim.Time(10+rng.Intn(60))
		}
		c.Engine.At(at, func() {
			if _, err := d.SubmitWith(spec, opts); err != nil {
				t.Error(err)
			}
		})
		at += sim.Time(rng.ExpFloat64() * 2.5)
	}
	c.Engine.At(4, func() { c.Machines[1].CPU.SetSpeedFactor(0.25) })
	c.Engine.At(20, func() { c.Machines[1].CPU.SetSpeedFactor(1) })
	c.Engine.At(8, func() { c.Fabric.SetLinkSpeed(3, 0.002) })
	c.Engine.At(18, func() { c.Fabric.SetLinkSpeed(3, 1) })
	for k, kt := range []sim.Time{5, 11, 17, 23} {
		m := k % n
		c.Engine.At(kt, func() { d.FailRunningTasks(m, 2, "injected kill") })
	}
	c.Engine.At(12, func() { _ = d.FailMachine(2) })
	c.Engine.At(24, func() { _ = d.RecoverMachine(2) })

	for c.Engine.Step() {
		comparePicks("after event", false)
		for w := range d.execs {
			stats.sawExcluded = stats.sawExcluded || d.excluded[w]
		}
		for _, p := range d.pools {
			sum := 0
			for _, h := range p.active {
				for _, st := range h.stages {
					sum += st.running
				}
			}
			if got := d.RunningTasks(p.cfg.Name); got != sum {
				t.Fatalf("seed %d t=%v: pool %s counts %d running attempts, stages sum to %d", seed, c.Engine.Now(), p.cfg.Name, got, sum)
			}
		}
		for _, h := range d.jobs {
			sum := 0
			for _, st := range h.stages {
				sum += st.running
				checkPendingIndex(t, st)
			}
			if got := h.LiveTasks(); got != sum {
				t.Fatalf("seed %d t=%v: job %s counts %d running attempts, stages sum to %d", seed, c.Engine.Now(), h.Spec.Name, got, sum)
			}
		}
	}
	d.Run() // aborts any job the crash stranded
	for _, h := range d.jobs {
		if h.Done() {
			stats.jobsDone++
		} else if h.Failed() {
			stats.jobsFailed++
		}
		for _, st := range h.stages {
			for _, atts := range st.attempts {
				if len(atts) >= 2 {
					stats.respeculated++
				}
			}
		}
	}
	return stats
}

// checkPendingIndex asserts the pick index's invariants for st: pending is
// strictly ascending, queued marks exactly the pending tasks, and no task
// before a machine's locality cursor is queued.
func checkPendingIndex(t *testing.T, st *stageState) {
	t.Helper()
	in := make([]bool, len(st.queued))
	for i, ti := range st.pending {
		if i > 0 && st.pending[i-1] >= ti {
			t.Fatalf("stage %s/%s: pending %v not strictly ascending", st.job.Spec.Name, st.spec.Name, st.pending)
		}
		in[ti] = true
	}
	for ti, q := range st.queued {
		if q != in[ti] {
			t.Fatalf("stage %s/%s: task %d queued=%v, in pending=%v", st.job.Spec.Name, st.spec.Name, ti, q, in[ti])
		}
	}
	if li := st.local; li != nil {
		for m, c := range li.cursor {
			for _, ti := range li.idx[li.off[m] : li.off[m]+c] {
				if st.queued[ti] {
					t.Fatalf("stage %s/%s: machine %d's cursor %d passed queued task %d", st.job.Spec.Name, st.spec.Name, m, c, ti)
				}
			}
		}
	}
}

func describePick(st *stageState, pos int) string {
	if st == nil {
		return "nothing"
	}
	return fmt.Sprintf("job %s stage %s pending[%d]=task %d", st.job.Spec.Name, st.spec.Name, pos, st.pending[pos])
}

// TestPickMatchesReference is the differential test for the driver's pick:
// a gauntlet of two weighted fair pools and a FIFO pool with an admission
// limit, priorities and deadlines, replication 1 and 3, speculation, task
// kills, fetch timeouts, exclusion, and a crash with recovery. The pick must
// match referencePickTask at every launch and after every event, the
// running counts must match their sums, and every reduce task's fetches
// must match referenceFetches, including across the crash that loses map
// outputs while reducers run.
func TestPickMatchesReference(t *testing.T) {
	var total pickGauntletStats
	for seed := int64(1); seed <= 8; seed++ {
		s := runPickGauntlet(t, seed)
		if s.jobsDone+s.jobsFailed != 15 {
			t.Fatalf("seed %d: %d jobs done and %d failed, want all 15 settled", seed, s.jobsDone, s.jobsFailed)
		}
		total.picks += s.picks
		total.reduceLaunches += s.reduceLaunches
		total.reruns += s.reruns
		total.respeculated += s.respeculated
		total.jobsDone += s.jobsDone
		total.sawExcluded = total.sawExcluded || s.sawExcluded
	}
	t.Logf("gauntlet: %d picks compared, %d reduce launches, %d lost-output reruns, %d tasks with several attempts, %d jobs done",
		total.picks, total.reduceLaunches, total.reruns, total.respeculated, total.jobsDone)
	if total.picks < 1000 || total.reduceLaunches < 100 || total.reruns == 0 || total.respeculated == 0 || total.jobsDone == 0 || !total.sawExcluded {
		t.Fatalf("gauntlet did not exercise the driver: %+v", total)
	}
}
