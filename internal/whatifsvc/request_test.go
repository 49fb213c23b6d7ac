package whatifsvc

import (
	"strings"
	"testing"
)

func validRequestJSON() string {
	return `{
		"tenant": "alice",
		"workload": {"kind": "sort", "total_mb": 64, "values_per_key": 10},
		"cluster": {"machines": 2},
		"whatifs": [{"kind": "scale_disk", "factor": 2}]
	}`
}

func TestDecodeRequestStrict(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"valid", validRequestJSON(), true},
		{"empty", ``, false},
		{"not json", `hello`, false},
		{"unknown field", `{"workload": {"kind": "sort", "total_mb": 1}, "cluster": {"machines": 1}, "bogus": 1}`, false},
		{"trailing data", validRequestJSON() + `{"second": "object"}`, false},
		{"wrong type", `{"workload": "sort"}`, false},
		{"oversized", `{"tenant": "` + strings.Repeat("x", MaxBodyBytes) + `"}`, false},
		{"shards field", `{"workload": {"kind": "sort", "total_mb": 1}, "cluster": {"machines": 1}, "shards": 2}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(tc.body))
			if (err == nil) != tc.ok {
				t.Fatalf("DecodeRequest(%s): err=%v, want ok=%v", tc.name, err, tc.ok)
			}
		})
	}
}

func TestValidateBounds(t *testing.T) {
	base := func() *Request {
		return &Request{
			Workload: WorkloadSpec{Kind: "sort", TotalMB: 64},
			Cluster:  ClusterSpec{Machines: 2},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Request)
		ok     bool
	}{
		{"base", func(r *Request) {}, true},
		{"unknown workload", func(r *Request) { r.Workload.Kind = "teragen" }, false},
		{"zero bytes", func(r *Request) { r.Workload.TotalMB = 0 }, false},
		{"huge input", func(r *Request) { r.Workload.TotalMB = MaxWorkloadMB + 1 }, false},
		{"too many jobs", func(r *Request) { r.Workload.Jobs = MaxJobs + 1 }, false},
		{"negative tasks", func(r *Request) { r.Workload.MapTasks = -4 }, false},
		{"zero machines", func(r *Request) { r.Cluster.Machines = 0 }, false},
		{"too many machines", func(r *Request) { r.Cluster.Machines = MaxMachines + 1 }, false},
		{"bad hardware", func(r *Request) { r.Cluster.Hardware = "quantum" }, false},
		{"degraded without count", func(r *Request) { r.Cluster.Degraded = 0.5 }, false},
		{"degraded over 1", func(r *Request) { r.Cluster.Degraded = 1.5; r.Cluster.DegradedMachines = 1 }, false},
		{"degraded ok", func(r *Request) { r.Cluster.Degraded = 0.5; r.Cluster.DegradedMachines = 1 }, true},
		{"bad whatif kind", func(r *Request) { r.WhatIfs = []WhatIfSpec{{Kind: "warp"}} }, false},
		{"zero factor", func(r *Request) { r.WhatIfs = []WhatIfSpec{{Kind: "scale_disk"}} }, false},
		{"bad resource", func(r *Request) { r.WhatIfs = []WhatIfSpec{{Kind: "infinitely_fast", Resource: "gpu"}} }, false},
		{"negative deadline", func(r *Request) { r.DeadlineMillis = -1 }, false},
		{"negative virtual deadline", func(r *Request) { r.VirtualDeadlineSeconds = -1 }, false},
		{"shuffle over 1", func(r *Request) { r.Workload.Kind = "wordcount"; r.Workload.ShuffleFraction = 2 }, false},
		{"chaos denied", func(r *Request) { r.Workload.Kind = ChaosKind }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base()
			tc.mutate(r)
			err := r.Validate(false)
			if (err == nil) != tc.ok {
				t.Fatalf("Validate: err=%v, want ok=%v", err, tc.ok)
			}
		})
	}
	// Chaos flips only under the flag.
	r := base()
	r.Workload.Kind = ChaosKind
	if err := r.Validate(true); err != nil {
		t.Fatalf("chaos workload rejected with chaos enabled: %v", err)
	}
}

// TestValidateErrorIsDeterministic: a request with several out-of-range
// fields gets the same 400 body on every call, naming the first offending
// field in declaration order.
func TestValidateErrorIsDeterministic(t *testing.T) {
	r := &Request{
		Workload: WorkloadSpec{Kind: "sort", TotalMB: 64, MapTasks: -1, ReduceTasks: MaxTasksPerWave + 1},
		Cluster:  ClusterSpec{Machines: 2},
	}
	for i := 0; i < 100; i++ {
		err := r.Validate(false)
		if err == nil {
			t.Fatal("request with out-of-range task counts validated")
		}
		if !strings.Contains(err.Error(), "map_tasks") || strings.Contains(err.Error(), "reduce_tasks") {
			t.Fatalf("call %d: %q, want the map_tasks error", i, err)
		}
	}
}

func TestFingerprintSemantics(t *testing.T) {
	base := func() *Request {
		r, err := DecodeRequest(strings.NewReader(validRequestJSON()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := base(), base()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical requests fingerprint differently")
	}
	// Admission-only fields do not split the memo.
	b.Tenant = "bob"
	b.DeadlineMillis = 5000
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("tenant/wall-budget changed the fingerprint")
	}
	// Anything that shapes the response body must split it.
	for name, mutate := range map[string]func(*Request){
		"workload kind":    func(r *Request) { r.Workload.Kind = "wordcount" },
		"size":             func(r *Request) { r.Workload.TotalMB = 65 },
		"machines":         func(r *Request) { r.Cluster.Machines = 3 },
		"whatif factor":    func(r *Request) { r.WhatIfs[0].Factor = 3 },
		"whatif dropped":   func(r *Request) { r.WhatIfs = nil },
		"virtual deadline": func(r *Request) { r.VirtualDeadlineSeconds = 2 },
		"telemetry":        func(r *Request) { r.Telemetry = true },
	} {
		m := base()
		mutate(m)
		if m.Fingerprint() == a.Fingerprint() {
			t.Fatalf("%s change did not change the fingerprint", name)
		}
	}
	// Field-boundary confusion: a value moving between adjacent string
	// fields must not collide (length-prefixed encoding).
	x := base()
	x.Workload.Kind = "sortab"
	y := base()
	y.Workload.Kind = "sort"
	y.Cluster.Hardware = "ab"
	if x.Fingerprint() == y.Fingerprint() {
		t.Fatal("string fields concatenate ambiguously")
	}
}

// FuzzDecodeRequest: the decoder must never panic, and anything it accepts
// must survive Validate and fingerprint deterministically.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(validRequestJSON())
	f.Add(`{}`)
	f.Add(`{"workload":{"kind":"wordcount","total_mb":1},"cluster":{"machines":1}}`)
	f.Add(`{"workload":{"kind":"sort","total_mb":-5},"cluster":{"machines":1e9}}`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Add("\x00\xff\xfe")
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		_ = req.Validate(false)
		_ = req.Validate(true)
		if req.Fingerprint() != req.Fingerprint() {
			t.Fatal("fingerprint not deterministic")
		}
	})
}
