// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the simulator's public entry points for a fixed time,
// checks every output, and prints one JSON object as its last line of
// standard output:
//
//	perfbench --workload sort-mono --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, all host time. With
// --trace 1 it spends the first half of the time running untraced and the
// second half traced (executor wrappers, a Step-driven engine, a CPU profile
// of the process) and reports the per-layer metrics, including the tracing
// overhead as the difference between the two halves. README.md lists the
// workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/run"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// expectedDigests holds the committed output digests, keyed by workload
// then seed, one per input variant. Runs at seeds without an entry are
// checked for agreement between repetitions of each variant and against the
// invariants alone.
//
//go:embed digests.json
var expectedDigestsJSON []byte

// variantSeed derives the seed of the k-th input variant of a run.
func variantSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// whatifVariants is how many distinct request plans a what-if run cycles
// through.
const whatifVariants = 4

var batchWorkloads = []batchWorkload{
	sortWorkload("sort-mono", run.Monotasks),
	sortWorkload("sort-spark", run.Spark),
	jobstreamWorkload(jobstreamShape),
}

func main() {
	workload := flag.String("workload", "", "workload to run: sort-mono, sort-spark, jobstream or whatif")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	printDigests := flag.Bool("print-digests", false, "run each input variant once and print the output digests as JSON")
	flag.Parse()

	// The load runs in one process on at most two threads.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case *printDigests:
		var ds []string
		if ds, err = digestsOnce(*workload, *seed); err == nil {
			out, _ := json.Marshal(ds)
			fmt.Println(string(out))
			return
		}
	case *workload == "whatif":
		rep, err = measureWhatif(*seed, dur, *trace == 1)
	default:
		w, ok := findBatch(*workload)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *workload)
			break
		}
		rep, err = measureBatch(w, *seed, dur, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func findBatch(name string) (batchWorkload, bool) {
	for _, w := range batchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return batchWorkload{}, false
}

// digestsOnce runs every input variant of a workload once, untraced, and
// returns their output digests.
func digestsOnce(workload string, seed int64) ([]string, error) {
	var out []string
	if workload == "whatif" {
		for k := 0; k < whatifVariants; k++ {
			wr, err := whatifOp(variantSeed(seed, k), roundRequests, false)
			if err != nil {
				return nil, err
			}
			if wr.check.failed > 0 {
				return nil, fmt.Errorf("variant %d: %d requests failed", k, wr.check.failed)
			}
			out = append(out, wr.check.digest)
		}
		return out, nil
	}
	w, ok := findBatch(workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	for k := 0; k < w.variants; k++ {
		r, err := w.build(variantSeed(seed, k))
		if err != nil {
			return nil, err
		}
		res, err := runPublic(r)
		if err != nil {
			return nil, err
		}
		for i, bad := range res.failed {
			if bad {
				return nil, fmt.Errorf("variant %d: job %q failed", k, res.jobs[i].Name)
			}
		}
		out = append(out, batchDigest(r, res))
	}
	return out, nil
}

// digestCheck compares each repetition's digest with the committed one for
// its variant, or, for a seed without committed digests, with the variant's
// first repetition in this run.
type digestCheck struct {
	want []string
}

func newDigestCheck(workload string, seed int64, variants int) *digestCheck {
	c := &digestCheck{want: make([]string, variants)}
	var table map[string]map[string][]string
	if err := json.Unmarshal(expectedDigestsJSON, &table); err == nil {
		copy(c.want, table[workload][strconv.FormatInt(seed, 10)])
	}
	return c
}

func (c *digestCheck) ok(variant int, got string) bool {
	if c.want[variant] == "" {
		c.want[variant] = got
	}
	return got == c.want[variant]
}

var heapAllocs = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated reads the process's cumulative heap allocation in bytes.
func heapAllocated() uint64 {
	rtmetrics.Read(heapAllocs)
	return heapAllocs[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// profiled runs fn under the CPU profiler and returns the decoded profile.
func profiled(fn func() error) (*Profile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return ParseProfile(buf.Bytes())
}

// opSample is one measured operation: a batch run or a what-if round.
type opSample struct {
	setup   time.Duration
	elapsed time.Duration
	alloc   uint64
	tasks   int
	reqs    int // jobs of a batch run, requests of a what-if round
}

// endToEnd fills the end-to-end metrics from a run's operations. missMs
// lists the latency of every request that ran a fresh simulation.
func endToEnd(rep *report, ops []opSample, missMs []float64) {
	var setup, tps, rps, alloc []float64
	for _, o := range ops {
		s := o.elapsed.Seconds()
		setup = append(setup, o.setup.Seconds())
		tps = append(tps, float64(o.tasks)/s)
		rps = append(rps, float64(o.reqs)/s)
		alloc = append(alloc, float64(o.alloc)/(1<<20))
	}
	rep.set("setup_s", median(setup), "s")
	rep.set("tasks_per_s", median(tps), "1/s")
	rep.set("requests_per_s", median(rps), "1/s")
	rep.set("miss_p50_ms", median(missMs), "ms")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("alloc_mb", median(alloc), "MB")
}

// setShares reports each layer's share of the profile's CPU time.
func setShares(rep *report, profiles []*Profile) {
	merged := &Profile{}
	for _, p := range profiles {
		merged.Samples = append(merged.Samples, p.Samples...)
	}
	shares, n := merged.LayerShares()
	other := 0.0
	for layer, v := range shares {
		if !reportedLayers[layer] {
			other += v
		}
	}
	for layer := range reportedLayers {
		rep.set(layer+".self_frac", shares[layer], "frac")
	}
	rep.set("other.self_frac", other, "frac")
	rep.set("profile.samples", float64(n), "count")
}

// reportedLayers are the layers whose self time is reported by name; the
// other repro packages (cluster, dfs, faults, workloads, run, task, ...) are
// summed into other.self_frac.
var reportedLayers = map[string]bool{
	"sim": true, "netsim": true, "resource": true, "core": true, "pipeexec": true,
	"jobsched": true, "shuffle": true, "model": true, "telemetry": true,
	"whatifsvc": true, "runtime": true, unclaimedLayer: true,
}
