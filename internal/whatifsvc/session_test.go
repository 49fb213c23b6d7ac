package whatifsvc

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Bounds on the heap bytes one RunSession of sessionBytesRequest allocates,
// with telemetry on and off. The session measures 468,032 and 242,832 bytes
// (at most 470,344 and 244,232 under the race detector); each bound is the
// larger reading plus 1%. Before a session without telemetry stopped its
// cluster's timelines and before each session's workers took up the free
// lists of the last one's, it took 572,704 and 479,016 bytes; before the
// telemetry sampler read each timeline once per tick into reused buffers,
// and before a core monotask node pointed at its stage template instead of
// copying it, 977,146 and 519,976.
const (
	maxSessionBytesTelemetry = 475_100
	maxSessionBytes          = 246_700
)

// sessionBytesRequest is the question TestSessionBytes measures: two
// concurrent 4 GB sorts on six HDD machines with one what-if.
func sessionBytesRequest(telemetry bool) *Request {
	return &Request{
		Workload: WorkloadSpec{Kind: "sort", TotalMB: 4096, Jobs: 2, ValuesPerKey: 10, MapTasks: 64, ReduceTasks: 32},
		Cluster:  ClusterSpec{Machines: 6},
		WhatIfs:  []WhatIfSpec{{Kind: "scale_disk", Factor: 2}},

		Telemetry: telemetry,
	}
}

// TestSessionBytes is the allocation guard on a what-if session: every
// byte a session allocates is paid for in garbage collection. Like
// TestSortEndToEndBytes it warms up once and measures at GOMAXPROCS 1; it
// takes the least of 40 sessions, because other goroutines can only add to
// the process-wide count, and because under the race detector sync.Pool
// drops a quarter of its Puts at random, so a session may find fewer free
// lists retired by the one before it (a session that finds all six is the
// least).
func TestSessionBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		telemetry bool
		max       uint64
	}{
		{true, maxSessionBytesTelemetry},
		{false, maxSessionBytes},
	} {
		req := sessionBytesRequest(c.telemetry)
		session := func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := RunSession(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			return ms.TotalAlloc - before
		}
		session()
		got := session()
		for i := 0; i < 39; i++ {
			got = min(got, session())
		}
		t.Logf("a session with telemetry %v allocates %d bytes", c.telemetry, got)
		if got > c.max {
			t.Errorf("a session with telemetry %v allocates %d bytes, want ≤ %d", c.telemetry, got, c.max)
		}
	}
}

// variedRequests are eight questions over the shapes a session's workers
// take their free lists across: HDD and SSD machines (two drives and one),
// 4 to 8 machines, 1 to 3 jobs of each kind, one cut off by a virtual
// deadline and one with telemetry.
func variedRequests() []*Request {
	sort := func(mb int64, jobs, maps, reduces int) WorkloadSpec {
		return WorkloadSpec{Kind: "sort", TotalMB: mb, Jobs: jobs, ValuesPerKey: 10, MapTasks: maps, ReduceTasks: reduces}
	}
	scale := []WhatIfSpec{{Kind: "scale_disk", Factor: 2}, {Kind: "infinitely_fast", Resource: "network"}}
	return []*Request{
		{Workload: sort(2048, 1, 32, 16), Cluster: ClusterSpec{Machines: 4}, WhatIfs: scale},
		{Workload: sort(3072, 2, 64, 32), Cluster: ClusterSpec{Machines: 6, Hardware: "ssd"}, WhatIfs: scale[:1]},
		{Workload: WorkloadSpec{Kind: "wordcount", TotalMB: 2048, Jobs: 3, ReduceTasks: 16}, Cluster: ClusterSpec{Machines: 5, Hardware: "ssd2"}},
		{Workload: WorkloadSpec{Kind: "readcompute", TotalMB: 1024, Jobs: 1, NumTasks: 64}, Cluster: ClusterSpec{Machines: 8}, WhatIfs: scale[1:]},
		{Workload: sort(4096, 2, 64, 32), Cluster: ClusterSpec{Machines: 4}, VirtualDeadlineSeconds: 20},
		{Workload: sort(2048, 1, 32, 32), Cluster: ClusterSpec{Machines: 7, Hardware: "ssd"}, WhatIfs: scale, Telemetry: true},
		{Workload: WorkloadSpec{Kind: "readcompute", TotalMB: 2048, Jobs: 2, NumTasks: 96}, Cluster: ClusterSpec{Machines: 4, Hardware: "ssd"}},
		{Workload: sort(1024, 3, 32, 16), Cluster: ClusterSpec{Machines: 8, Degraded: 0.5, DegradedMachines: 2}, WhatIfs: scale},
	}
}

// answerJSON answers req with f and renders the response as the service
// would send it.
func answerJSON(t *testing.T, req *Request, f func(*Request) (*Response, error)) string {
	t.Helper()
	resp, err := f(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func runSessionNow(req *Request) (*Response, error) { return RunSession(context.Background(), req) }

// TestAnswersIndependentOfSessionOrder answers the same questions in order,
// in reverse and from four goroutines at once. Each session's workers take
// up free lists a previous session retired, possibly a concurrent one's, so
// a pointer left from that session, or shared between two, shows as a
// changed answer (or, under -race, as a race).
func TestAnswersIndependentOfSessionOrder(t *testing.T) {
	reqs := variedRequests()
	want := make([]string, len(reqs))
	for i, req := range reqs {
		want[i] = answerJSON(t, req, runSessionNow)
	}
	if !strings.Contains(want[4], `"aborted":true`) || !strings.Contains(want[5], `"telemetry":{`) {
		t.Fatalf("the deadline and telemetry questions lost their shape: %s / %s", want[4], want[5])
	}
	for i := len(reqs) - 1; i >= 0; i-- {
		if got := answerJSON(t, reqs[i], runSessionNow); got != want[i] {
			t.Errorf("request %d answered in reverse order:\n got %s\nwant %s", i, got, want[i])
		}
	}
	got := make([]string, 4*len(reqs))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + 3*g) % len(reqs)
				resp, err := RunSession(context.Background(), reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := json.Marshal(resp)
				got[g*len(reqs)+i] = string(b)
			}
		}(g)
	}
	wg.Wait()
	for j, s := range got {
		if i := j % len(reqs); s != want[i] {
			t.Errorf("request %d answered concurrently (goroutine %d):\n got %s\nwant %s", i, j/len(reqs), s, want[i])
		}
	}
}

// TestStoppedTimelinesAnswerAlike answers each question without telemetry
// on a cluster that records every timeline and compares the response with
// RunSession's, whose cluster records none.
func TestStoppedTimelinesAnswerAlike(t *testing.T) {
	recording := func(req *Request) (*Response, error) {
		c, err := buildCluster(&req.Cluster)
		if err != nil {
			return nil, err
		}
		resp, err := answer(context.Background(), req, c)
		if c.Machines[0].CPU.Util.Len() == 0 {
			t.Fatal("the recording cluster recorded no CPU timeline")
		}
		return resp, err
	}
	for i, req := range variedRequests() {
		if req.Telemetry {
			continue
		}
		if got, want := answerJSON(t, req, runSessionNow), answerJSON(t, req, recording); got != want {
			t.Errorf("request %d: stopped timelines answer\n%s\nrecording timelines answer\n%s", i, got, want)
		}
	}
}
