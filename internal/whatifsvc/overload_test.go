package whatifsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOverloadChaosStorm is the service's survival exam: many tenants posting
// concurrently, a deliberately tiny slot pool and queue, and a traffic mix of
// honest questions, repeats (memo pressure), malformed bodies, panicking
// sessions, and requests with hopeless deadlines. The service must answer
// every request with a sane status, shed predictably with 429 when queues
// fill, keep admission latency bounded, and still be healthy afterwards.
// Run it under -race: the admission gate, memo, and per-request sessions all
// interleave here.
func TestOverloadChaosStorm(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2, QueueDepth: 2, Chaos: true})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	goodBody := func(tenant string, mb int) string {
		return fmt.Sprintf(`{
			"tenant": %q,
			"workload": {"kind": "wordcount", "total_mb": %d, "reduce_tasks": 8},
			"cluster": {"machines": 2}
		}`, tenant, mb)
	}
	requests := make([]string, 0, 64)
	for i := 0; i < 8; i++ {
		tenant := fmt.Sprintf("tenant-%d", i%4)
		requests = append(requests,
			goodBody(tenant, 8+i), // distinct questions
			goodBody(tenant, 8),   // repeated question (memo)
			`{"broken json`,       // malformed
			`{"workload": {"kind": "chaos-panic"}, "cluster": {"machines": 1}, "tenant": "`+tenant+`"}`, // panics in-session
			fmt.Sprintf(`{
				"tenant": %q,
				"workload": {"kind": "sort", "total_mb": 2048, "values_per_key": 1, "jobs": 4},
				"cluster": {"machines": 16},
				"deadline_ms": 1
			}`, tenant), // hopeless deadline
			`{"workload": {"kind": "sort", "total_mb": -1}, "cluster": {"machines": 1}}`, // invalid bounds
		)
	}

	type result struct {
		status int
		body   []byte
	}
	results := make([]result, len(requests))
	var wg sync.WaitGroup
	for i, body := range requests {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/whatif", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: transport error (server died?): %v", i, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			results[i] = result{resp.StatusCode, buf.Bytes()}
		}(i, body)
	}
	wg.Wait()

	counts := map[int]int{}
	for i, r := range results {
		switch r.status {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
			http.StatusInternalServerError, http.StatusGatewayTimeout:
			counts[r.status]++
		default:
			t.Errorf("request %d: unexpected status %d: %s", i, r.status, r.body)
		}
		// Every response, success or failure, is structured JSON.
		if !json.Valid(r.body) {
			t.Errorf("request %d: non-JSON body: %q", i, r.body)
		}
		if r.status == http.StatusTooManyRequests {
			var eb errorBody
			if json.Unmarshal(r.body, &eb) != nil || eb.RetryAfterSeconds < 1 {
				t.Errorf("429 without a usable retry hint: %s", r.body)
			}
		}
	}
	t.Logf("status mix under storm: %v", counts)
	if counts[http.StatusOK] == 0 {
		t.Error("no request succeeded under load")
	}
	if counts[http.StatusBadRequest] == 0 {
		t.Error("malformed requests not rejected")
	}
	if counts[http.StatusInternalServerError] == 0 {
		t.Error("chaos sessions produced no isolated 500s")
	}

	// The server survived: health endpoint up, a fresh question answered,
	// and admission latency still bounded.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after storm: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = ts.Client().Post(ts.URL+"/whatif", "application/json", strings.NewReader(goodBody("after", 12)))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm request failed: %v %v", err, resp)
	}
	resp.Body.Close()
	if p99 := svc.adm.P99Latency(); p99.Seconds() > 60 {
		t.Fatalf("p99 admission latency unbounded: %v", p99)
	}
}

// TestOverloadShedsWith429 drives one tenant hard enough to fill its queue
// and checks the service sheds instead of queueing without bound. The single
// simulation slot is held by the test for the whole burst (simulations can
// finish faster than HTTP requests arrive, which would let every request
// sneak through serially), so exactly queueDepth requests may queue and the
// rest must shed.
func TestOverloadShedsWith429(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	release, err := svc.adm.Acquire(context.Background(), "squatter")
	if err != nil {
		t.Fatal(err)
	}
	// Distinct questions so the memo cannot absorb them.
	body := func(i int) string {
		return fmt.Sprintf(`{
			"tenant": "hammer",
			"workload": {"kind": "sort", "total_mb": %d, "values_per_key": 4},
			"cluster": {"machines": 4}
		}`, 256+i)
	}
	const n = 12
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/whatif", "application/json", strings.NewReader(body(i)))
			if err != nil {
				t.Errorf("request %d died: %v", i, err)
				return
			}
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After header")
			}
			resp.Body.Close()
		}(i)
	}
	// Hold the slot until the burst has resolved into one queued waiter and
	// eleven sheds, then let the queued request run.
	for deadline := time.Now().Add(10 * time.Second); ; {
		_, waiting, shed := svc.adm.Stats()
		if waiting+int(shed) >= n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst never resolved: waiting=%d shed=%d", waiting, shed)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	shed, ok := 0, 0
	for _, s := range statuses {
		switch s {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			ok++
		}
	}
	if shed == 0 {
		t.Fatalf("12 concurrent asks on a 1-slot/1-deep server shed nothing: %v", statuses)
	}
	if ok == 0 {
		t.Fatalf("nothing succeeded either: %v", statuses)
	}
}
