package monospark

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dfs"
	"repro/internal/jobsched"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/workloads"
)

// stagePlan is one stage of a physical plan: a chain of narrow operations
// over one input (source, cache, or the shuffled output of parent stages).
// Evaluation is real — records flow through the user's functions — and the
// byte volumes and record counts observed feed the simulator's cost model.
type stagePlan struct {
	terminal   *Dataset // the dataset this stage's output materializes
	parents    []*stagePlan
	shuffleOp  *operation // set when input is shuffled from parents
	narrow     []*Dataset // narrow-op datasets applied in order after input
	partitions int

	// cacheFrom, when set, reads a previously cached dataset.
	cacheFrom *Dataset

	// Filled during evaluation.
	out         [][]any
	inputBytes  int64
	fromMem     bool
	sourceFile  *dfs.File
	records     int64 // records processed (per-op applications)
	shuffleOut  int64 // bytes this stage writes for children to fetch
	outputBytes int64 // bytes written by the action (SaveAsTextFile)
}

// plan builds the stage tree ending at d. Each call returns fresh nodes, so
// a dataset used twice in one job is evaluated twice — exactly Spark's
// behaviour for uncached lineage.
func plan(d *Dataset) *stagePlan {
	switch {
	case d.source != nil:
		return &stagePlan{terminal: d, partitions: d.partitions,
			fromMem: d.source.inMemory, sourceFile: d.source.file, inputBytes: d.source.bytes}
	case d.cached && d.cachedParts != nil:
		return &stagePlan{terminal: d, partitions: d.partitions, fromMem: true,
			cacheFrom: d, inputBytes: d.cachedBytes}
	case d.op.isShuffle():
		sp := &stagePlan{terminal: d, partitions: d.partitions, shuffleOp: &d.op}
		sp.parents = append(sp.parents, plan(d.parent))
		if d.other != nil {
			sp.parents = append(sp.parents, plan(d.other))
		}
		return sp
	default:
		sp := plan(d.parent)
		sp.narrow = append(sp.narrow, d)
		sp.terminal = d
		sp.partitions = d.partitions
		return sp
	}
}

// topo lists the stage tree parents-first.
func topo(sp *stagePlan) []*stagePlan {
	var out []*stagePlan
	var walk func(*stagePlan)
	walk = func(s *stagePlan) {
		for _, p := range s.parents {
			walk(p)
		}
		out = append(out, s)
	}
	walk(sp)
	return out
}

// evaluate runs the real data plane for every stage, filling outputs and
// measured volumes.
func evaluate(stages []*stagePlan, finalOutput bool) error {
	for _, sp := range stages {
		if err := evalStage(sp); err != nil {
			return err
		}
	}
	last := stages[len(stages)-1]
	if finalOutput {
		last.outputBytes = sizeOfParts(last.out)
	}
	// Materialize caches.
	for _, sp := range stages {
		if sp.terminal.cached && sp.terminal.cachedParts == nil {
			sp.terminal.cachedParts = sp.out
			sp.terminal.cachedBytes = sizeOfParts(sp.out)
		}
	}
	return nil
}

func evalStage(sp *stagePlan) error {
	var parts [][]any
	switch {
	case sp.shuffleOp != nil:
		var err error
		parts, err = shuffleInput(sp)
		if err != nil {
			return err
		}
	case sp.cacheFrom != nil:
		// Copy the partition slices: narrow ops replace them in place.
		parts = make([][]any, len(sp.cacheFrom.cachedParts))
		copy(parts, sp.cacheFrom.cachedParts)
	default:
		src := sourceOf(sp)
		if src == nil {
			return fmt.Errorf("monospark: stage has neither source, shuffle, nor cache input")
		}
		parts = splitRecords(src.records, sp.partitions)
	}
	// Apply the narrow chain.
	for _, ds := range sp.narrow {
		op := ds.op
		for pi, p := range parts {
			next := make([]any, 0, len(p))
			for _, rec := range p {
				sp.records++
				switch op.kind {
				case opMap:
					next = append(next, op.mapFn(rec))
				case opFlatMap:
					next = append(next, op.flatFn(rec)...)
				case opFilter:
					if op.predFn(rec) {
						next = append(next, rec)
					}
				case opMapToPair:
					next = append(next, op.pairFn(rec))
				default:
					return fmt.Errorf("monospark: unexpected narrow op %d", op.kind)
				}
			}
			parts[pi] = next
		}
		if ds.cached && ds.cachedParts == nil {
			// A mid-chain Cache(): snapshot now so later jobs can start
			// here instead of recomputing the lineage.
			snap := make([][]any, len(parts))
			copy(snap, parts)
			ds.cachedParts = snap
			ds.cachedBytes = sizeOfParts(snap)
		}
	}
	sp.out = parts
	return nil
}

// sourceOf finds the stage's root source, walking past nothing (plan keeps
// the source on the stage itself).
func sourceOf(sp *stagePlan) *sourceInfo {
	d := sp.terminal
	for d.parent != nil && !d.op.isShuffle() {
		d = d.parent
	}
	return d.source
}

// splitRecords tiles records into n contiguous partitions of near-equal size.
func splitRecords(records []any, n int) [][]any {
	parts := make([][]any, n)
	per := len(records) / n
	rem := len(records) % n
	idx := 0
	for i := 0; i < n; i++ {
		sz := per
		if i < rem {
			sz++
		}
		parts[i] = records[idx : idx+sz]
		idx += sz
	}
	return parts
}

// shuffleInput runs the map side of the stage's shuffle on each parent's
// output (combining and measuring shuffle volume), then builds the reduce
// side's input partitions.
func shuffleInput(sp *stagePlan) ([][]any, error) {
	op := sp.shuffleOp
	n := sp.partitions
	switch op.kind {
	case opReduceByKey:
		parent := sp.parents[0]
		buckets := make([]map[string]any, n)
		for i := range buckets {
			buckets[i] = make(map[string]any)
		}
		for _, part := range parent.out {
			// Map-side combine, then partition (as Spark's combiners do).
			local := make(map[string]any, len(part))
			for _, rec := range part {
				p, ok := rec.(Pair)
				if !ok {
					return nil, fmt.Errorf("monospark: ReduceByKey over non-Pair record %T", rec)
				}
				parent.records++
				if v, seen := local[p.Key]; seen {
					local[p.Key] = op.combine(v, p.Value)
				} else {
					local[p.Key] = p.Value
				}
			}
			for k, v := range local {
				parent.shuffleOut += sizeOf(Pair{Key: k, Value: v})
				b := buckets[int(fnv1a(k)%uint64(n))]
				sp.records++
				if prev, seen := b[k]; seen {
					b[k] = op.combine(prev, v)
				} else {
					b[k] = v
				}
			}
		}
		out := make([][]any, n)
		for i, b := range buckets {
			keys := make([]string, 0, len(b))
			for k := range b {
				keys = append(keys, k)
			}
			sort.Strings(keys) // deterministic output order
			for _, k := range keys {
				out[i] = append(out[i], Pair{Key: k, Value: b[k]})
			}
		}
		return out, nil

	case opGroupByKey:
		parent := sp.parents[0]
		buckets := make([]map[string][]any, n)
		for i := range buckets {
			buckets[i] = make(map[string][]any)
		}
		for _, part := range parent.out {
			for _, rec := range part {
				p, ok := rec.(Pair)
				if !ok {
					return nil, fmt.Errorf("monospark: GroupByKey over non-Pair record %T", rec)
				}
				parent.records++
				parent.shuffleOut += sizeOf(p)
				b := buckets[int(fnv1a(p.Key)%uint64(n))]
				sp.records++
				b[p.Key] = append(b[p.Key], p.Value)
			}
		}
		out := make([][]any, n)
		for i, b := range buckets {
			keys := make([]string, 0, len(b))
			for k := range b {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				out[i] = append(out[i], Pair{Key: k, Value: b[k]})
			}
		}
		return out, nil

	case opSortByKey:
		parent := sp.parents[0]
		var all []Pair
		for _, part := range parent.out {
			for _, rec := range part {
				p, ok := rec.(Pair)
				if !ok {
					return nil, fmt.Errorf("monospark: SortByKey over non-Pair record %T", rec)
				}
				parent.records++
				parent.shuffleOut += sizeOf(p)
				all = append(all, p)
			}
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Key < all[j].Key })
		out := make([][]any, n)
		if len(all) == 0 {
			return out, nil // sorting nothing is legal
		}
		for i, p := range all {
			sp.records++
			out[i*n/len(all)] = append(out[i*n/len(all)], p)
		}
		return out, nil

	case opJoin:
		left, right := sp.parents[0], sp.parents[1]
		lb := make([]map[string][]any, n)
		rb := make([]map[string][]any, n)
		for i := 0; i < n; i++ {
			lb[i] = make(map[string][]any)
			rb[i] = make(map[string][]any)
		}
		fill := func(parent *stagePlan, dst []map[string][]any) error {
			for _, part := range parent.out {
				for _, rec := range part {
					p, ok := rec.(Pair)
					if !ok {
						return fmt.Errorf("monospark: Join over non-Pair record %T", rec)
					}
					parent.records++
					parent.shuffleOut += sizeOf(p)
					i := int(fnv1a(p.Key) % uint64(n))
					dst[i][p.Key] = append(dst[i][p.Key], p.Value)
				}
			}
			return nil
		}
		if err := fill(left, lb); err != nil {
			return nil, err
		}
		if err := fill(right, rb); err != nil {
			return nil, err
		}
		out := make([][]any, n)
		for i := 0; i < n; i++ {
			keys := make([]string, 0, len(lb[i]))
			for k := range lb[i] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				for _, lv := range lb[i][k] {
					for _, rv := range rb[i][k] {
						sp.records++
						out[i] = append(out[i], Pair{Key: k, Value: [2]any{lv, rv}})
					}
				}
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("monospark: unknown shuffle op %d", op.kind)
}

// toJobSpec converts an evaluated plan into the simulator's job description.
func (c *Context) toJobSpec(name string, stages []*stagePlan) (*task.JobSpec, error) {
	job := &task.JobSpec{Name: name}
	index := make(map[*stagePlan]int, len(stages))
	for i, sp := range stages {
		index[sp] = i
		n := sp.partitions
		spec := &task.StageSpec{ID: i, Name: fmt.Sprintf("%s/stage%d", name, i), NumTasks: n}
		switch {
		case sp.shuffleOp != nil:
			var inBytes int64
			for _, p := range sp.parents {
				spec.ParentIDs = append(spec.ParentIDs, index[p])
				inBytes += p.shuffleOut
			}
			spec.DeserCPU = workloads.DeserCPUPerByte * float64(inBytes/int64(n))
		case sp.fromMem:
			spec.InputFromMem = true
			spec.InputBytesPerTask = sp.inputBytes / int64(n)
		case sp.sourceFile != nil:
			spec.InputBlocks = sp.sourceFile.Blocks
			if len(spec.InputBlocks) != n {
				return nil, fmt.Errorf("monospark: stage %d has %d blocks for %d tasks", i, len(spec.InputBlocks), n)
			}
			spec.DeserCPU = workloads.DeserCPUPerByte * float64(sp.inputBytes/int64(n))
		default:
			return nil, fmt.Errorf("monospark: stage %d has no input description", i)
		}
		spec.OpCPU = c.cfg.CPUCostPerRecord * float64(sp.records) / float64(n)
		spec.ShuffleOutBytes = sp.shuffleOut / int64(n)
		spec.OutputBytes = sp.outputBytes / int64(n)
		spec.SerCPU = workloads.SerCPUPerByte * float64((sp.shuffleOut+sp.outputBytes)/int64(n))
		job.Stages = append(job.Stages, spec)
	}
	return job, nil
}

// runJob simulates the job and returns its metrics. Under chaos the job may
// abort (retry budget exhausted, unrecoverable data loss); the driver's
// descriptive error is returned instead of a result.
func (c *Context) runJob(spec *task.JobSpec) (*task.JobMetrics, error) {
	return c.runJobContext(context.Background(), spec)
}

// runJobContext is runJob with cooperative cancellation: when ctx is
// cancelled mid-simulation the run aborts between event batches, the job is
// failed cleanly, and the Context is poisoned (see Context.aborted).
func (c *Context) runJobContext(ctx context.Context, spec *task.JobSpec) (*task.JobMetrics, error) {
	if err := c.usable(); err != nil {
		return nil, err
	}
	d, err := c.driver()
	if err != nil {
		return nil, err
	}
	h, err := d.Submit(spec)
	if err != nil {
		return nil, err
	}
	ms, err := c.drain(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("monospark: %s: %w", spec.Name, err)
	}
	if err := h.Err(); err != nil {
		return nil, err
	}
	return ms[0], nil
}

// driver builds the next job's driver over the Context's executors. The run
// layer installs the fault plan with the first driver and binds each one,
// replaying machines that are currently down into its dead set; the
// session's sampler, which outlives per-job drivers, is pointed at it too.
func (c *Context) driver() (*jobsched.Driver, error) {
	d, err := run.DriverWith(c.cluster, c.fs, c.execs, c.opts)
	if err != nil {
		return nil, err
	}
	if c.sampler != nil {
		c.sampler.Bind(d)
	}
	return d, nil
}

// drain runs d under ctx's cancellation. A cancelled run fails the
// in-flight jobs with the returned *run.AbortError and poisons the Context.
func (c *Context) drain(ctx context.Context, d *jobsched.Driver) ([]*task.JobMetrics, error) {
	ms, err := run.Drain(ctx, c.cluster, d, c.opts)
	if err != nil {
		c.aborted = err
	}
	return ms, err
}

// usable rejects further runs on a Context poisoned by a cancelled run.
func (c *Context) usable() error {
	if c.aborted != nil {
		return fmt.Errorf("monospark: context unusable after a cancelled run (%w); create a fresh Context", c.aborted)
	}
	return nil
}
