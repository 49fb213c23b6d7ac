package main

import (
	"runtime"
	"time"

	"repro/internal/whatifsvc"
)

// perLayerMetrics lists every per-layer metric with its unit. A traced run
// reports each of them on every workload; one a workload cannot reach reads 0
// (core counters on sort-spark, executor counters on whatif, whose service
// builds its own drivers, and what-if counters on the batch workloads).
var perLayerMetrics = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"netsim.nic_updates", "count"},
	{"core.launches", "count"},
	{"core.launch_ns", "ns"},
	{"pipeexec.launches", "count"},
	{"pipeexec.launch_ns", "ns"},
	{"jobsched.submit_ns", "ns"},
	{"jobsched.useful_attempts", "frac"},
	{"jobsched.failed_attempts", "count"},
	{"resource.disk_bytes", "B"},
	{"model.predict_ns", "ns"},
	{"whatifsvc.decode_ns", "ns"},
	{"whatifsvc.hit_us", "us"},
	{"whatifsvc.hit_ratio", "frac"},
	{"whatifsvc.admission_p99_ms", "ms"},
	{"whatifsvc.miss_p95_ms", "ms"},
	{"telemetry.snapshots", "count"},
	{"trace.overhead_ms", "ms"},
}

// fillPerLayer sets every per-layer metric the workload did not reach to 0.
func fillPerLayer(rep *report) {
	for _, m := range perLayerMetrics {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
		}
	}
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}}
}

// account adds one operation's outcome to the report's totals.
func (r *report) account(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
	r.Correct = r.Failed == 0
}

// batchOp builds and runs one batch instance. Setup (cluster, DFS inputs,
// specs, fault plan) is timed apart from the run. With cnt set the run is
// traced: assembled by runTraced, profiled, and its counters collected after
// the profile stops.
func batchOp(w batchWorkload, seed int64, k int, cnt *batchCounters) (opSample, *batchRun, *batchResult, *Profile, error) {
	runtime.GC() // every run starts from a collected heap
	start := time.Now()
	r, err := w.build(variantSeed(seed, k))
	if err != nil {
		return opSample{}, nil, nil, nil, err
	}
	op := opSample{setup: time.Since(start)}
	var res *batchResult
	exec := func() error {
		a0 := heapAllocated()
		start := time.Now()
		var err error
		if cnt == nil {
			res, err = runPublic(r)
		} else {
			res, err = runTraced(r, cnt)
		}
		op.elapsed = time.Since(start)
		op.alloc = heapAllocated() - a0
		return err
	}
	var prof *Profile
	if cnt == nil {
		err = exec()
	} else {
		prof, err = profiled(exec)
	}
	if err != nil {
		return opSample{}, nil, nil, nil, err
	}
	op.tasks, op.reqs = res.tasks, len(res.jobs)
	return op, r, res, prof, nil
}

// measureBatch runs a batch workload repeatedly for dur and reports its
// end-to-end metrics, or with traced its per-layer metrics.
func measureBatch(w batchWorkload, seed int64, dur time.Duration, traced bool) (*report, error) {
	rep := newReport()
	check := newDigestCheck(w.name, seed, w.variants)
	judge := func(k int, r *batchRun, res *batchResult) {
		failed := 0
		for _, bad := range res.failed {
			if bad {
				failed++
			}
		}
		if !check.ok(k, batchDigest(r, res)) {
			failed = len(res.jobs)
		}
		rep.account(len(res.jobs), failed)
	}

	untracedFor := dur
	if traced {
		untracedFor = dur / 2
	}
	var ops []opSample
	for end := time.Now().Add(untracedFor); len(ops) == 0 || time.Now().Before(end); {
		k := len(ops) % w.variants
		op, r, res, _, err := batchOp(w, seed, k, nil)
		if err != nil {
			return nil, err
		}
		judge(k, r, res)
		ops = append(ops, op)
	}
	if !traced {
		var runMs []float64
		for _, o := range ops {
			runMs = append(runMs, o.elapsed.Seconds()*1000)
		}
		endToEnd(rep, ops, runMs)
		return rep, nil
	}

	var tops []opSample
	var profiles []*Profile
	var events, nsPerEvent, nics, submitNs, useful, failedAtt, disk, predictNs []float64
	launches := map[string][]float64{}
	launchNs := map[string][]float64{}
	for end := time.Now().Add(dur - untracedFor); len(tops) == 0 || time.Now().Before(end); {
		cnt := &batchCounters{launches: map[string]*launchCount{}}
		k := len(tops) % w.variants
		op, r, res, prof, err := batchOp(w, seed, k, cnt)
		if err != nil {
			return nil, err
		}
		judge(k, r, res)
		collectCounters(r, res, cnt)
		tops = append(tops, op)
		profiles = append(profiles, prof)

		events = append(events, float64(cnt.events))
		nsPerEvent = append(nsPerEvent, float64(cnt.stepNs)/float64(max(cnt.events, 1)))
		nics = append(nics, float64(cnt.nicUpdates))
		submitNs = append(submitNs, float64(cnt.submitNs)/float64(max(cnt.submits, 1)))
		disk = append(disk, float64(cnt.diskBytes))
		predictNs = append(predictNs, float64(cnt.predictNs)/float64(max(cnt.predicts, 1)))
		var all, failed int64
		for layer, lc := range cnt.launches {
			launches[layer] = append(launches[layer], float64(lc.launches))
			launchNs[layer] = append(launchNs[layer], float64(lc.ns)/float64(max(lc.launches, 1)))
			all += lc.launches
			failed += lc.failed
		}
		useful = append(useful, float64(res.tasks)/float64(max(all, 1)))
		failedAtt = append(failedAtt, float64(failed))
	}

	rep.set("sim.events", median(events), "count")
	rep.set("sim.ns_per_event", median(nsPerEvent), "ns")
	rep.set("netsim.nic_updates", median(nics), "count")
	for _, layer := range []string{"core", "pipeexec"} {
		rep.set(layer+".launches", median(launches[layer]), "count")
		rep.set(layer+".launch_ns", median(launchNs[layer]), "ns")
	}
	rep.set("jobsched.submit_ns", median(submitNs), "ns")
	rep.set("jobsched.useful_attempts", median(useful), "frac")
	rep.set("jobsched.failed_attempts", median(failedAtt), "count")
	rep.set("resource.disk_bytes", median(disk), "B")
	rep.set("model.predict_ns", median(predictNs), "ns")
	rep.set("trace.overhead_ms", (median(elapsed(tops))-median(elapsed(ops)))*1000, "ms")
	setShares(rep, profiles)
	fillPerLayer(rep)
	return rep, nil
}

func elapsed(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.elapsed.Seconds()
	}
	return out
}

// whatifRound is one measured pass over a what-if plan.
type whatifRound struct {
	op      opSample
	replies []whatifReply
	stats   serviceStats
	check   roundCheck
	prof    *Profile
}

// whatifOp generates the seed's plan, starts a fresh service with the
// default configuration, and runs one round. Setup (plan and service) is
// timed apart from the round. traced times request decoding on the client
// side and profiles the round.
func whatifOp(seed int64, requests int, traced bool) (*whatifRound, error) {
	runtime.GC()
	start := time.Now()
	p, err := newWhatifPlan(seed, requests)
	if err != nil {
		return nil, err
	}
	svc := whatifsvc.New(whatifsvc.Config{})
	wr := &whatifRound{op: opSample{setup: time.Since(start)}}
	exec := func() error {
		a0 := heapAllocated()
		start := time.Now()
		wr.replies = runRound(svc, p, traced)
		wr.op.elapsed = time.Since(start)
		wr.op.alloc = heapAllocated() - a0
		return nil
	}
	if traced {
		if wr.prof, err = profiled(exec); err != nil {
			return nil, err
		}
	} else {
		_ = exec() // an untraced round cannot fail; replies carry any errors
	}
	if wr.stats, err = fetchStats(svc); err != nil {
		return nil, err
	}
	wr.check = checkRound(p, wr.replies, wr.stats)
	wr.op.tasks, wr.op.reqs = wr.check.tasks, len(wr.replies)
	return wr, nil
}

// measureWhatif runs what-if rounds for dur and reports the end-to-end
// metrics, or with traced the per-layer metrics.
func measureWhatif(seed int64, dur time.Duration, traced bool) (*report, error) {
	rep := newReport()
	check := newDigestCheck("whatif", seed, whatifVariants)
	judge := func(k int, wr *whatifRound) {
		failed := wr.check.failed
		if !check.ok(k, wr.check.digest) {
			failed = len(wr.replies)
		}
		rep.account(len(wr.replies), failed)
	}
	missMs := func(wr *whatifRound, dst []float64) []float64 {
		for _, r := range wr.replies {
			if r.memo == "miss" {
				dst = append(dst, r.latency.Seconds()*1000)
			}
		}
		return dst
	}

	untracedFor := dur
	if traced {
		untracedFor = dur / 2
	}
	var ops []opSample
	var misses []float64
	for end := time.Now().Add(untracedFor); len(ops) == 0 || time.Now().Before(end); {
		k := len(ops) % whatifVariants
		wr, err := whatifOp(variantSeed(seed, k), roundRequests, false)
		if err != nil {
			return nil, err
		}
		judge(k, wr)
		ops = append(ops, wr.op)
		misses = missMs(wr, misses)
	}
	if !traced {
		endToEnd(rep, ops, misses)
		return rep, nil
	}

	var tops []opSample
	var profiles []*Profile
	var decodeNs, hitUs, hitRatio, admission, snapshots []float64
	for end := time.Now().Add(dur - untracedFor); len(tops) == 0 || time.Now().Before(end); {
		k := len(tops) % whatifVariants
		wr, err := whatifOp(variantSeed(seed, k), roundRequests, true)
		if err != nil {
			return nil, err
		}
		judge(k, wr)
		tops = append(tops, wr.op)
		profiles = append(profiles, wr.prof)
		for _, r := range wr.replies {
			decodeNs = append(decodeNs, float64(r.decodeNs))
			if r.memo == "hit" {
				hitUs = append(hitUs, r.latency.Seconds()*1e6)
			}
		}
		hitRatio = append(hitRatio, float64(wr.check.hits)/float64(len(wr.replies)))
		admission = append(admission, float64(wr.stats.P99AdmissionMs))
		snapshots = append(snapshots, float64(wr.check.snapshots))
	}
	rep.set("whatifsvc.decode_ns", median(decodeNs), "ns")
	rep.set("whatifsvc.hit_us", median(hitUs), "us")
	rep.set("whatifsvc.hit_ratio", median(hitRatio), "frac")
	rep.set("whatifsvc.admission_p99_ms", median(admission), "ms")
	if p95, ok := percentile(misses, 0.95); ok {
		rep.set("whatifsvc.miss_p95_ms", p95, "ms")
	}
	rep.set("telemetry.snapshots", median(snapshots), "count")
	rep.set("trace.overhead_ms", (median(elapsed(tops))-median(elapsed(ops)))*1000, "ms")
	setShares(rep, profiles)
	fillPerLayer(rep)
	return rep, nil
}
