package jobsched

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// This file is the driver's multi-tenant layer: named scheduling pools with
// an admission queue in front of each, weighted fair sharing of executor
// slots between pools, and priority/deadline-aware dispatch within a pool.
//
// The paper's multi-job story (§6.4, Fig. 16) is that per-resource monotask
// accounting attributes contention between concurrent jobs almost exactly;
// pools are what let a driver actually carry that concurrency: an admission
// queue accepts any number of jobs at once, per-pool limits bound how many
// run, and free slots rotate between pools in proportion to their weights
// instead of draining one job before the next.

// PoolPolicy selects how jobs within one pool compete for the pool's share.
type PoolPolicy int

const (
	// FairShare rotates the pool's slots between its active jobs (the job
	// with the fewest running tasks goes first), so concurrent jobs make
	// progress together — the scheduling Fig. 16 measures.
	FairShare PoolPolicy = iota
	// FIFO serves the pool's active jobs strictly in dispatch order: a job
	// takes every slot it can use before the next job gets one.
	FIFO
)

// String names the scheduling policy.
func (p PoolPolicy) String() string {
	switch p {
	case FairShare:
		return "fair"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// PoolConfig declares one scheduling pool in Config.Pools.
type PoolConfig struct {
	// Name identifies the pool in SubmitOptions.Pool; it must be non-empty
	// and unique.
	Name string
	// Weight is the pool's fair-share weight relative to other pools'
	// (default 1): while several pools have runnable work, each receives
	// executor slots in proportion to its weight.
	Weight float64
	// Policy orders jobs within the pool (default FairShare).
	Policy PoolPolicy
	// MaxConcurrentJobs caps how many of the pool's jobs run at once;
	// further submissions wait in the pool's admission queue until a
	// running job finishes. Zero means unlimited.
	MaxConcurrentJobs int
}

func (p PoolConfig) withDefaults() PoolConfig {
	if p.Weight <= 0 {
		p.Weight = 1
	}
	return p
}

// DefaultPool is the pool jobs land in when SubmitOptions names none. It is
// created automatically (unlimited, weight 1, fair-share) unless Config.Pools
// declares a pool with this name explicitly.
const DefaultPool = "default"

// SubmitOptions tags one job for the multi-tenant scheduler.
type SubmitOptions struct {
	// Pool names the scheduling pool (DefaultPool when empty). Submitting
	// to an undeclared pool is an error.
	Pool string
	// Priority orders jobs within their pool: higher priorities dispatch
	// first. Within one priority, earlier deadlines go first.
	Priority int
	// Deadline is the job's target completion time in virtual seconds;
	// at equal priority, the job with the earliest deadline dispatches
	// first (zero = no deadline, sorts after any deadline).
	Deadline sim.Time
}

// poolState is one pool's runtime record.
type poolState struct {
	cfg   PoolConfig
	index int
	// queue holds submitted jobs awaiting admission, in dispatch order.
	queue []*JobHandle
	// active holds admitted, unfinished jobs in pick order (see before), so
	// the pool's pick is the first of them that has a task for the worker.
	active []*JobHandle
	// running counts the live attempts of the jobs in active, the quantity
	// weighted fair sharing balances across pools (Spark's FairScheduler
	// comparator). Admission adds a job's count and release subtracts it.
	running int
}

// deficit is the pool's normalized load; the pool with the smallest deficit
// receives the next free slot.
func (p *poolState) deficit() float64 {
	return float64(p.running) / p.cfg.Weight
}

// before is the pool's pick order. FIFO serves jobs in dispatch order. Fair
// share puts the job with the fewest live attempts first, dispatch order
// breaking ties. dispatchBefore ends in the unique submission sequence, so
// both are strict total orders: the first job in this order that has a task
// for a worker is exactly the one a scan of every job would pick.
func (p *poolState) before(a, b *JobHandle) bool {
	if p.cfg.Policy != FIFO && a.running != b.running {
		return a.running < b.running
	}
	return dispatchBefore(a, b)
}

// file inserts h into active at its place in the pool's order. A job that
// sorts last, as a newly admitted one usually does, is appended without a
// search, so admission does not probe a long backlog.
func (p *poolState) file(h *JobHandle) {
	i := len(p.active)
	if i > 0 && p.before(h, p.active[i-1]) {
		i = sort.Search(i, func(k int) bool { return p.before(h, p.active[k]) })
	}
	p.active = slices.Insert(p.active, i, h)
}

// unfile removes h from active. h's key must be the one it was filed under.
func (p *poolState) unfile(h *JobHandle) {
	i := sort.Search(len(p.active), func(k int) bool { return !p.before(p.active[k], h) })
	p.active = slices.Delete(p.active, i, i+1)
}

// addRunning changes st's live-attempt count by delta; it is the only code
// that changes it, so the job's count, and its pool's while the job is
// active, stay equal to their sums. A fair-share pool refiles the job under
// its new count, moving only that job. A released job's late attempts (a
// losing speculative twin still running after its job finished) change the
// job's count but not its former pool's.
func (d *Driver) addRunning(st *stageState, delta int) {
	st.running += delta
	h := st.job
	if !h.admitted || h.released {
		h.running += delta
		return
	}
	p := h.pool
	p.running += delta
	if p.cfg.Policy == FIFO {
		h.running += delta
		return
	}
	p.unfile(h)
	h.running += delta
	p.file(h)
}

// initPools builds the driver's pool table from cfg.Pools, adding the
// default pool unless it was declared explicitly.
func (d *Driver) initPools() error {
	names := make(map[string]bool)
	for i, pc := range d.cfg.Pools {
		if pc.Weight < 0 {
			return fmt.Errorf("jobsched: pool %q has negative weight %v", pc.Name, pc.Weight)
		}
		if pc.MaxConcurrentJobs < 0 {
			return fmt.Errorf("jobsched: pool %q has negative MaxConcurrentJobs %d", pc.Name, pc.MaxConcurrentJobs)
		}
		pc = pc.withDefaults()
		if pc.Name == "" {
			return fmt.Errorf("jobsched: pool %d has no name", i)
		}
		if names[pc.Name] {
			return fmt.Errorf("jobsched: duplicate pool %q", pc.Name)
		}
		names[pc.Name] = true
		d.pools = append(d.pools, &poolState{cfg: pc, index: len(d.pools)})
	}
	if !names[DefaultPool] {
		d.pools = append(d.pools, &poolState{
			cfg:   PoolConfig{Name: DefaultPool, Weight: 1, Policy: FairShare},
			index: len(d.pools),
		})
	}
	d.poolByName = make(map[string]*poolState, len(d.pools))
	for _, p := range d.pools {
		d.poolByName[p.cfg.Name] = p
	}
	return nil
}

// dispatchBefore orders jobs within a pool: priority descending, then
// deadline ascending (no deadline last), then submission order.
func dispatchBefore(a, b *JobHandle) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	ad, bd := a.Deadline, b.Deadline
	if ad == 0 {
		ad = sim.Forever
	}
	if bd == 0 {
		bd = sim.Forever
	}
	if ad != bd {
		return ad < bd
	}
	return a.seq < b.seq
}

// enqueue inserts h into p's admission queue in dispatch order (stable for
// equal keys, so equal jobs keep submission order).
func (p *poolState) enqueue(h *JobHandle) {
	pos := sort.Search(len(p.queue), func(i int) bool {
		return dispatchBefore(h, p.queue[i])
	})
	p.queue = append(p.queue, nil)
	copy(p.queue[pos+1:], p.queue[pos:])
	p.queue[pos] = h
}

// admitFrom moves jobs from p's admission queue into its active set while
// the pool has admission capacity.
func (d *Driver) admitFrom(p *poolState) {
	admitted := false
	for len(p.queue) > 0 {
		if p.cfg.MaxConcurrentJobs > 0 && len(p.active) >= p.cfg.MaxConcurrentJobs {
			break
		}
		h := p.queue[0]
		copy(p.queue, p.queue[1:])
		p.queue[len(p.queue)-1] = nil
		p.queue = p.queue[:len(p.queue)-1]
		h.admitted = true
		h.AdmittedAt = d.cluster.Engine.Now()
		p.file(h)
		p.running += h.running
		admitted = true
	}
	if admitted {
		d.schedule()
	}
}

// releaseJob removes a finished (done or aborted) job from its pool's
// active set — or its admission queue, if it failed before admission — and
// admits the next queued job.
func (d *Driver) releaseJob(h *JobHandle) {
	p := h.pool
	if p == nil || h.released {
		return
	}
	if h.admitted {
		p.unfile(h)
		p.running -= h.running
	} else if i := slices.Index(p.queue, h); i >= 0 {
		p.queue = slices.Delete(p.queue, i, i+1)
	}
	h.released = true
	// A finished job never registers or reads shuffle output again, and
	// FailMachine skips it, so its map outputs can go.
	for i := range h.stages {
		d.tracker.Clear(h.base + i)
	}
	d.admitFrom(p)
}

// poolOrder returns pool indices sorted by fair-share deficit (running
// tasks over weight), ties broken by declaration order — the cross-pool
// arbitration for each free slot. The common single-pool driver skips the
// sort entirely; multi-pool drivers reuse scratch and a stable insertion
// sort (pool counts are tiny), so the per-slot arbitration allocates
// nothing.
func (d *Driver) poolOrder() []*poolState {
	if len(d.pools) == 1 {
		return d.pools
	}
	if d.deficitScratch == nil {
		d.deficitScratch = make([]float64, len(d.pools))
	}
	deficits := d.deficitScratch
	for _, p := range d.pools {
		deficits[p.index] = p.deficit()
	}
	order := append(d.orderScratch[:0], d.pools...)
	d.orderScratch = order
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && deficits[order[j].index] < deficits[order[j-1].index]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// pickFromPool chooses a runnable (stage, pending position) of one of p's
// active jobs for worker w: the first job in the pool's order that has one.
// Under FIFO that drains jobs strictly in dispatch order; under fair share
// the job with the fewest live attempts goes first, and dispatch order
// breaks ties, so priorities and deadlines still matter when loads are
// equal.
func (d *Driver) pickFromPool(p *poolState, w int) (*stageState, int, bool) {
	for _, h := range p.active {
		if st, idx, ok := d.pickFromJob(h, w); ok {
			return st, idx, true
		}
	}
	return nil, 0, false
}

// pickFromJob finds h's first runnable stage with a task for w (stages in
// DAG order, locality honoured by pickFromStage).
func (d *Driver) pickFromJob(h *JobHandle, w int) (*stageState, int, bool) {
	if h.finished() {
		return nil, 0, false
	}
	for _, st := range h.stages {
		if !st.runnable() {
			continue
		}
		if idx, ok := d.pickFromStage(st, w); ok {
			return st, idx, true
		}
	}
	return nil, 0, false
}

// Jobs returns every submitted job's handle in submission order — finished,
// running, and queued alike. The slice is a copy; the handles are live, so a
// telemetry sampler can read each job's Metrics and task counts mid-run.
func (d *Driver) Jobs() []*JobHandle {
	return append([]*JobHandle(nil), d.jobs...)
}

// LiveTasks reports the job's running task attempts right now.
func (h *JobHandle) LiveTasks() int { return h.running }

// PoolNames lists the driver's pools in declaration order (the default pool
// last unless declared).
func (d *Driver) PoolNames() []string {
	out := make([]string, len(d.pools))
	for i, p := range d.pools {
		out[i] = p.cfg.Name
	}
	return out
}

// QueuedJobs reports how many submitted jobs are waiting for admission in
// the named pool.
func (d *Driver) QueuedJobs(pool string) int {
	if p, ok := d.poolByName[pool]; ok {
		return len(p.queue)
	}
	return 0
}

// ActiveJobs reports how many admitted, unfinished jobs the named pool has.
func (d *Driver) ActiveJobs(pool string) int {
	if p, ok := d.poolByName[pool]; ok {
		return len(p.active)
	}
	return 0
}

// RunningTasks reports the named pool's live task attempts right now — the
// quantity weighted fair sharing balances, exposed so a live dashboard (or a
// test) can watch each pool's slot share directly.
func (d *Driver) RunningTasks(pool string) int {
	if p, ok := d.poolByName[pool]; ok {
		return p.running
	}
	return 0
}

// PendingTasks reports how many of the named pool's tasks are runnable but
// unscheduled right now (queued behind busy slots; tasks blocked on a stage
// barrier don't count). Nonzero means the pool is backlogged — it could use
// more slots than it holds, so its RunningTasks share is the scheduler's
// choice rather than demand-limited.
func (d *Driver) PendingTasks(pool string) int {
	p, ok := d.poolByName[pool]
	if !ok {
		return 0
	}
	n := 0
	for _, h := range p.active {
		for _, st := range h.stages {
			if st.runnable() {
				n += len(st.pending)
			}
		}
	}
	return n
}
