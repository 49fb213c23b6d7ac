package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/whatifsvc"
)

// The what-if workload is a closed loop: whatifClients clients each post
// their next question as soon as the previous answer arrives, to one
// in-process whatifsvc handler with the service's default configuration.
// One round is a fixed, seeded sequence of requests; each round starts a
// fresh service, so every round does the same work and the memo starts
// empty.
const (
	whatifClients = 2
	// repeatEvery makes every fourth request (after the first repeatWarmup)
	// repeat an earlier question, so a quarter of the traffic is memo reads.
	repeatEvery  = 4
	repeatWarmup = 16
	// A repeat targets a question first asked at least repeatMinGap requests
	// earlier, so its fresh answer has normally been stored, and at most
	// repeatWindow questions back, well inside the default 256-entry memo.
	repeatMinGap = 8
	repeatWindow = 128
)

// roundRequests is the length of one round's request sequence.
const roundRequests = 400

// question is one distinct what-if request.
type question struct {
	body  []byte
	jobs  int // simulated jobs a fresh answer reports
	whats int // what-if predictions a fresh answer reports
	tasks int // simulated tasks a fresh answer runs
	// telemetry is whether the question asks for a telemetry summary.
	telemetry bool
}

// whatifPlan is one round's request sequence.
type whatifPlan struct {
	questions []question
	order     []int // per request, the question it asks; a first ask is fresh
}

// newWhatifPlan generates a round from the seed. Workload kinds cycle in a
// fixed pattern (sort, wordcount, sort, readcompute) so every seed has the
// same mix; sizes, cluster shapes, job counts, what-ifs and the telemetry
// flag are drawn from the seed.
func newWhatifPlan(seed int64, requests int) (*whatifPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &whatifPlan{}
	for i := 0; i < requests; i++ {
		if i >= repeatWarmup && i%repeatEvery == repeatEvery-1 {
			hi := len(p.questions) - repeatMinGap
			lo := len(p.questions) - repeatWindow
			if lo < 0 {
				lo = 0
			}
			p.order = append(p.order, lo+rng.Intn(hi-lo))
			continue
		}
		q, err := newQuestion(rng, len(p.questions))
		if err != nil {
			return nil, err
		}
		p.questions = append(p.questions, q)
		p.order = append(p.order, len(p.questions)-1)
	}
	return p, nil
}

var whatIfChoices = []whatifsvc.WhatIfSpec{
	{Kind: "scale_disk", Factor: 2},
	{Kind: "set_disk_bw", Factor: 4e8},
	{Kind: "scale_cluster", Factor: 2},
	{Kind: "scale_net", Factor: 4},
	{Kind: "in_memory_input"},
	{Kind: "infinitely_fast", Resource: "cpu"},
	{Kind: "infinitely_fast", Resource: "disk"},
	{Kind: "infinitely_fast", Resource: "network"},
}

func newQuestion(rng *rand.Rand, i int) (question, error) {
	req := whatifsvc.Request{
		Tenant: []string{"etl", "adhoc"}[i%2],
		Cluster: whatifsvc.ClusterSpec{
			Machines: 4 + rng.Intn(5),
			Hardware: []string{"hdd", "ssd", "ssd2"}[rng.Intn(3)],
		},
		Telemetry: rng.Intn(4) == 0,
	}
	w := &req.Workload
	w.Jobs = 1 + rng.Intn(3)
	var tasksPerJob int
	switch i % 4 {
	case 0, 2:
		w.Kind = "sort"
		w.TotalMB = 1024 + int64(rng.Intn(7168))
		w.ValuesPerKey = []int{10, 20, 50}[rng.Intn(3)]
		w.MapTasks = 32 * (1 + rng.Intn(4))
		w.ReduceTasks = 16 * (1 + rng.Intn(4))
		tasksPerJob = w.MapTasks + w.ReduceTasks
	case 1:
		w.Kind = "wordcount"
		w.TotalMB = 2048 + int64(rng.Intn(14336))
		w.ReduceTasks = 16 * (1 + rng.Intn(4))
		maps := int(w.TotalMB / 128) // one map task per 128 MB block, at least one per machine
		if maps < req.Cluster.Machines {
			maps = req.Cluster.Machines
		}
		tasksPerJob = maps + w.ReduceTasks
	default:
		w.Kind = "readcompute"
		w.TotalMB = 1024 + int64(rng.Intn(7168))
		w.NumTasks = 32 * (1 + rng.Intn(6))
		tasksPerJob = w.NumTasks
	}
	for _, k := range rng.Perm(len(whatIfChoices))[:1+rng.Intn(3)] {
		req.WhatIfs = append(req.WhatIfs, whatIfChoices[k])
	}
	body, err := json.Marshal(req)
	if err != nil {
		return question{}, err
	}
	return question{body: body, jobs: w.Jobs, whats: len(req.WhatIfs), tasks: w.Jobs * tasksPerJob, telemetry: req.Telemetry}, nil
}

// whatifReply is one request's outcome as the client saw it.
type whatifReply struct {
	status   int
	memo     string // X-Whatif-Memo: "hit" or "miss"
	body     []byte
	latency  time.Duration
	decodeNs int64 // traced rounds: DecodeRequest+Validate+Fingerprint
}

// serviceStats is the subset of GET /stats the benchmark checks and reports.
type serviceStats struct {
	MemoHits       int64 `json:"memo_hits"`
	Runs           int64 `json:"runs"`
	FailedRuns     int64 `json:"failed_runs"`
	Shed           int64 `json:"shed"`
	P99AdmissionMs int64 `json:"p99_admission_ms"`
}

// runRound posts every request of p to svc from whatifClients concurrent
// clients, each taking the next request in sequence when its previous one
// returns. traced additionally times the service's request decoding on each
// body from the client side.
func runRound(svc http.Handler, p *whatifPlan, traced bool) []whatifReply {
	replies := make([]whatifReply, len(p.order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < whatifClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.order) {
					return
				}
				body := p.questions[p.order[i]].body
				var decodeNs int64
				if traced {
					decodeNs = timeDecode(body)
				}
				req := httptest.NewRequest(http.MethodPost, "/whatif", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				start := time.Now()
				svc.ServeHTTP(rec, req)
				replies[i] = whatifReply{
					status:   rec.Code,
					memo:     rec.Header().Get("X-Whatif-Memo"),
					body:     rec.Body.Bytes(),
					latency:  time.Since(start),
					decodeNs: decodeNs,
				}
			}
		}()
	}
	wg.Wait()
	return replies
}

// timeDecode times the service's request front end on one body.
func timeDecode(body []byte) int64 {
	start := time.Now()
	req, err := whatifsvc.DecodeRequest(bytes.NewReader(body))
	if err == nil && req.Validate(false) == nil {
		req.Fingerprint()
	}
	return time.Since(start).Nanoseconds()
}

// fetchStats reads the service's /stats endpoint.
func fetchStats(svc http.Handler) (serviceStats, error) {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st serviceStats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}

// roundCheck is the verdict on one round's replies.
type roundCheck struct {
	failed    int    // requests that were not 200, or whose body was wrong
	hits      int    // replies served from the memo
	tasks     int    // simulated tasks run by fresh answers
	snapshots int    // telemetry snapshots summarized by fresh answers
	digest    string // hash of every question's answer, in question order
}

// checkRound verifies a round: every reply is a 200 marked hit or miss, every
// answer to the same question is byte-identical (a memo hit must equal the
// fresh body), every answer reports all its jobs finished and one prediction
// per what-if, and the service's own counters agree with what the clients
// saw.
func checkRound(p *whatifPlan, replies []whatifReply, st serviceStats) roundCheck {
	var rc roundCheck
	canon := make([][]byte, len(p.questions))
	bad := make([]bool, len(p.questions))
	misses := 0
	for i, r := range replies {
		qi := p.order[i]
		q := p.questions[qi]
		switch {
		case r.status != http.StatusOK || (r.memo != "hit" && r.memo != "miss"):
			rc.failed++
			continue
		case canon[qi] == nil:
			canon[qi] = r.body
			snaps, ok := answerOK(r.body, q)
			bad[qi] = !ok
			rc.snapshots += snaps
		case !bytes.Equal(canon[qi], r.body):
			bad[qi] = true
		}
		if bad[qi] {
			rc.failed++
		}
		if r.memo == "hit" {
			rc.hits++
		} else {
			misses++
			rc.tasks += q.tasks
		}
	}
	if st.MemoHits != int64(rc.hits) || st.Runs != int64(misses) || st.FailedRuns != 0 || st.Shed != 0 {
		rc.failed = len(replies)
	}
	h := sha256.New()
	for _, b := range canon {
		h.Write(b)
		h.Write([]byte{0})
	}
	rc.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return rc
}

// answerOK decodes a fresh answer and checks its shape against the question.
// It returns the answer's telemetry snapshot count.
func answerOK(body []byte, q question) (int, bool) {
	var resp whatifsvc.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, false
	}
	if len(resp.Jobs) != q.jobs || len(resp.Predictions) != q.whats || resp.Aborted {
		return 0, false
	}
	for _, j := range resp.Jobs {
		if !j.Finished || j.Seconds <= 0 {
			return 0, false
		}
	}
	if q.jobs > 1 && len(resp.Attribution) != q.jobs || (resp.Telemetry != nil) != q.telemetry {
		return 0, false
	}
	snaps := 0
	if resp.Telemetry != nil {
		snaps = resp.Telemetry.Snapshots
	}
	return snaps, true
}
