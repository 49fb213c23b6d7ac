package whatifsvc

import (
	"context"
	"runtime"
	"testing"
)

// Bounds on the heap bytes one RunSession of sessionBytesRequest allocates,
// with telemetry on and off. The session measures 572,784 and 479,440 bytes
// (574,458 and 480,184 under the race detector); each bound is its
// measurement plus 1%. Before the telemetry sampler read each timeline once
// per tick into reused buffers, and before a core monotask node pointed at
// its stage template instead of copying it, the session took 977,146 and
// 519,976 bytes.
const (
	maxSessionBytesTelemetry = 578_500
	maxSessionBytes          = 484_200
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
// takes the least of three sessions, because other goroutines can only add
// to the process-wide count.
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
		for i := 0; i < 2; i++ {
			got = min(got, session())
		}
		if got > c.max {
			t.Errorf("a session with telemetry %v allocates %d bytes, want ≤ %d", c.telemetry, got, c.max)
		}
	}
}
