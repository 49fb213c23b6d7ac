package whatifsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/whatif", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func sortRequest(extra string) string {
	return `{
		"tenant": "t1",
		"workload": {"kind": "sort", "total_mb": 32, "values_per_key": 10, "map_tasks": 16, "reduce_tasks": 16},
		"cluster": {"machines": 2}` + extra + `
	}`
}

func TestServiceHappyPath(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	body := sortRequest(`, "whatifs": [
		{"kind": "scale_disk", "factor": 2},
		{"kind": "infinitely_fast", "resource": "network"}
	]`)
	resp, b := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out Response
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if out.Workload != "sort" || out.Machines != 2 {
		t.Fatalf("echo fields wrong: %+v", out)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].Seconds <= 0 || !out.Jobs[0].Finished {
		t.Fatalf("job result wrong: %+v", out.Jobs)
	}
	if len(out.Bottlenecks) != 4 {
		t.Fatalf("want 4-resource bottleneck ranking, got %+v", out.Bottlenecks)
	}
	if out.Bottlenecks[0].IdealSeconds < out.Bottlenecks[3].IdealSeconds {
		t.Fatalf("bottleneck ranking not sorted: %+v", out.Bottlenecks)
	}
	if len(out.Predictions) != 2 {
		t.Fatalf("want 2 predictions, got %+v", out.Predictions)
	}
	for _, p := range out.Predictions {
		if p.PredictedSeconds <= 0 || p.PredictedSeconds > p.CurrentSeconds {
			t.Fatalf("speedup what-if predicts no improvement: %+v", p)
		}
	}
	if resp.Header.Get("X-Whatif-Memo") != "miss" {
		t.Fatalf("first answer should be a memo miss, header=%q", resp.Header.Get("X-Whatif-Memo"))
	}
}

func TestServiceMemoHitByteIdentical(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	body := sortRequest(``)
	resp1, b1 := post(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first post: %d %s", resp1.StatusCode, b1)
	}
	resp2, b2 := post(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second post: %d %s", resp2.StatusCode, b2)
	}
	if resp2.Header.Get("X-Whatif-Memo") != "hit" {
		t.Fatal("second identical request did not hit the memo")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("memo hit differs from fresh run:\n%s\nvs\n%s", b1, b2)
	}
	// A different tenant asking the same question shares the entry.
	resp3, b3 := post(t, ts, strings.Replace(body, `"t1"`, `"t2"`, 1))
	if resp3.Header.Get("X-Whatif-Memo") != "hit" || !bytes.Equal(b1, b3) {
		t.Fatal("cross-tenant memo share broken")
	}
	// And a fresh service answering from scratch produces the same bytes —
	// the determinism that makes the memo sound.
	ts2 := httptest.NewServer(New(Config{}))
	defer ts2.Close()
	_, b4 := post(t, ts2, body)
	if !bytes.Equal(b1, b4) {
		t.Fatal("fresh service produced different bytes for the same question")
	}
}

func TestServiceRejectsMalformed(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	for name, body := range map[string]string{
		"not json":     `}{`,
		"unknown kind": `{"workload": {"kind": "teragen", "total_mb": 1}, "cluster": {"machines": 1}}`,
		"oversized":    `{"workload": {"kind": "sort", "total_mb": 999999999}, "cluster": {"machines": 1}}`,
		"chaos denied": `{"workload": {"kind": "chaos-panic"}, "cluster": {"machines": 1}}`,
	} {
		resp, b := post(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (want 400): %s", name, resp.StatusCode, b)
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Error == "" {
			t.Fatalf("%s: 400 body not a structured error: %s", name, b)
		}
	}
}

func TestServicePanicIsolation(t *testing.T) {
	ts := httptest.NewServer(New(Config{Chaos: true}))
	defer ts.Close()
	resp, b := post(t, ts, `{"workload": {"kind": "chaos-panic"}, "cluster": {"machines": 1}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("chaos request: status %d (want 500): %s", resp.StatusCode, b)
	}
	var eb errorBody
	if err := json.Unmarshal(b, &eb); err != nil {
		t.Fatalf("500 body not JSON: %s", b)
	}
	if !strings.Contains(eb.Panic, "chaos") || !strings.Contains(eb.Stack, "runSession") {
		t.Fatalf("500 body missing panic context: %+v", eb)
	}
	// The server must keep serving after a session crash.
	resp2, b2 := post(t, ts, sortRequest(``))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-crash request failed: %d %s", resp2.StatusCode, b2)
	}
}

func TestServiceWallDeadline504(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	// A cluster-and-workload big enough that simulating it takes well over
	// 1 ms of real time.
	body := `{
		"workload": {"kind": "sort", "total_mb": 2048, "values_per_key": 1, "jobs": 4},
		"cluster": {"machines": 16},
		"deadline_ms": 1
	}`
	resp, b := post(t, ts, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("blown budget: status %d (want 504): %s", resp.StatusCode, b)
	}
}

func TestServiceVirtualDeadlinePartial(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	full, fb := post(t, ts, sortRequest(``))
	if full.StatusCode != http.StatusOK {
		t.Fatalf("full run: %d %s", full.StatusCode, fb)
	}
	var fullOut Response
	if err := json.Unmarshal(fb, &fullOut); err != nil {
		t.Fatal(err)
	}
	cut := fullOut.Jobs[0].Seconds / 2
	resp, b := post(t, ts, sortRequest(`, "virtual_deadline_s": `+jsonFloat(cut)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("virtual-deadline run: %d %s", resp.StatusCode, b)
	}
	var out Response
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Aborted {
		t.Fatalf("virtual deadline at half runtime did not mark aborted: %s", b)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].Finished {
		t.Fatalf("cut-off job reported finished: %+v", out.Jobs)
	}
	if len(out.Predictions) != 0 {
		t.Fatal("partial run must not extrapolate predictions")
	}
}

func jsonFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

func TestServiceTelemetrySummary(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, b := post(t, ts, sortRequest(`, "telemetry": true`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry run: %d %s", resp.StatusCode, b)
	}
	var out Response
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Telemetry == nil || out.Telemetry.Snapshots == 0 || !out.Telemetry.FinalCaptured {
		t.Fatalf("telemetry summary missing or empty: %+v", out.Telemetry)
	}
}

func TestServiceAttributionForConcurrentJobs(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, b := post(t, ts, `{
		"workload": {"kind": "sort", "total_mb": 32, "values_per_key": 10, "jobs": 2},
		"cluster": {"machines": 2}
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, b)
	}
	var out Response
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Attribution) != 2 {
		t.Fatalf("want per-job attribution for 2 jobs, got %+v", out.Attribution)
	}
	var diskSum float64
	for _, a := range out.Attribution {
		diskSum += a.DiskShare
	}
	if diskSum < 0.99 || diskSum > 1.01 {
		t.Fatalf("disk shares sum to %v, want ~1", diskSum)
	}
}

func TestServiceRoutes(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/whatif")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /whatif: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestAdmitterFairShare(t *testing.T) {
	a := newAdmitter(1, 8)
	// Fill the only slot.
	release, err := a.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	// Queue six waiters per tenant. Each freed slot goes to the waiting
	// tenant with the fewest admissions, ties to the first name: b (none
	// yet), then a and b in turn.
	results := make(chan string, 16)
	acquire := func(tenant string) {
		go func() {
			r, err := a.Acquire(context.Background(), tenant)
			if err != nil {
				return
			}
			results <- tenant
			time.Sleep(time.Millisecond)
			r()
		}()
	}
	for i := 0; i < 6; i++ {
		acquire("a")
		acquire("b")
	}
	for {
		time.Sleep(5 * time.Millisecond)
		a.mu.Lock()
		w := a.waiting
		a.mu.Unlock()
		if w == 12 {
			break
		}
	}
	release()
	var order []string
	for i := 0; i < 12; i++ {
		select {
		case g := <-results:
			order = append(order, g)
		case <-time.After(5 * time.Second):
			t.Fatalf("admissions stalled after %v", order)
		}
	}
	if got, want := strings.Join(order, " "), strings.TrimSpace(strings.Repeat("b a ", 6)); got != want {
		t.Fatalf("admission order %q, want equal shares in turn %q", got, want)
	}
}

func TestAdmitterShedsWhenQueueFull(t *testing.T) {
	a := newAdmitter(1, 2)
	release, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx, cancel := context.WithCancel(context.Background())
			started <- struct{}{}
			_, _ = a.Acquire(ctx, "t")
			cancel()
		}()
	}
	<-started
	<-started
	deadline := time.After(5 * time.Second)
	for {
		a.mu.Lock()
		w := a.waiting
		a.mu.Unlock()
		if w == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("waiters never queued")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := a.Acquire(context.Background(), "t"); err != ErrOverloaded {
		t.Fatalf("full queue: want ErrOverloaded, got %v", err)
	}
	if _, _, shed := a.Stats(); shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}
	if a.RetryAfter() < time.Second {
		t.Fatal("Retry-After under a second")
	}
}

func TestAdmitterAcquireCancelledWhileQueued(t *testing.T) {
	a := newAdmitter(1, 4)
	release, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx, "t"); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire under dead context: %v", err)
	}
	release()
	// The cancelled waiter must not have leaked the slot.
	r2, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatalf("slot leaked by cancelled waiter: %v", err)
	}
	r2()
}
