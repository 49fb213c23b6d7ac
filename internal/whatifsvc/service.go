package whatifsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Config tunes the service. Zero values take the documented defaults.
type Config struct {
	// MaxConcurrent is the simulation slot pool size (default 4).
	MaxConcurrent int
	// QueueDepth bounds each tenant's admission queue (default 8); a full
	// queue sheds with 429.
	QueueDepth int
	// MaxDeadline is the ceiling on per-request wall budgets (default 30s).
	// Requests asking for more are clamped; requests asking for nothing get
	// MaxDeadline.
	MaxDeadline time.Duration
	// MemoEntries bounds the response memo (default 256).
	MemoEntries int
	// Chaos admits the deliberately panicking ChaosKind workload — test and
	// staging only.
	Chaos bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MemoEntries <= 0 {
		c.MemoEntries = 256
	}
	return c
}

// Service is the what-if HTTP handler. One Service serves any number of
// concurrent requests; every failure mode of a request — malformed body,
// oversized ask, panic mid-simulation, blown deadline, full queue — is
// contained to its response.
type Service struct {
	cfg   Config
	adm   *admitter
	memo  *memoCache
	hits  atomic.Int64
	runs  atomic.Int64
	fails atomic.Int64
}

// New builds a Service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:  cfg,
		adm:  newAdmitter(cfg.MaxConcurrent, cfg.QueueDepth),
		memo: newMemo(cfg.MemoEntries),
	}
}

type errorBody struct {
	Error string `json:"error"`
	// Panic and Stack are set on 500s caused by a recovered session panic.
	Panic string `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429s.
	RetryAfterSeconds int `json:"retry_after_s,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// ServeHTTP routes POST /whatif, GET /healthz, and GET /stats.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Last-resort containment: nothing escaping the handlers below may kill
	// the serving goroutine's connection loop with a confusing empty reply.
	defer func() {
		if rec := recover(); rec != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{
				Error: "internal error",
				Panic: fmt.Sprint(rec),
			})
		}
	}()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/whatif":
		s.handleWhatIf(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case r.Method == http.MethodGet && r.URL.Path == "/stats":
		s.handleStats(w)
	default:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "not found"})
	}
}

func (s *Service) handleStats(w http.ResponseWriter) {
	running, waiting, shed := s.adm.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"running":          running,
		"waiting":          waiting,
		"shed":             shed,
		"memo_entries":     s.memo.Len(),
		"memo_hits":        s.hits.Load(),
		"runs":             s.runs.Load(),
		"failed_runs":      s.fails.Load(),
		"p99_admission_ms": s.adm.P99Latency().Milliseconds(),
	})
}

func (s *Service) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := req.Validate(s.cfg.Chaos); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	fp := req.Fingerprint()

	// Memo first, admission second: a repeated question is answered from the
	// cache even while every simulation slot is busy, so memo traffic never
	// queues and never sheds.
	if body := s.memo.Get(fp); body != nil {
		s.hits.Add(1)
		s.writeResult(w, body, true, 0)
		return
	}

	tenant := req.Tenant
	if tenant == "" {
		tenant = "anon"
	}
	release, err := s.adm.Acquire(r.Context(), tenant)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			retry := s.adm.RetryAfter()
			w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
			writeJSON(w, http.StatusTooManyRequests, errorBody{
				Error:             "overloaded: tenant queue full",
				RetryAfterSeconds: int(retry / time.Second),
			})
			return
		}
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "request cancelled while queued: " + err.Error()})
		return
	}
	defer release()

	// Another request may have answered the same question while we queued.
	if body := s.memo.Get(fp); body != nil {
		s.hits.Add(1)
		s.writeResult(w, body, true, 0)
		return
	}

	budget := s.cfg.MaxDeadline
	if req.DeadlineMillis > 0 {
		budget = min(time.Duration(req.DeadlineMillis)*time.Millisecond, budget)
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	start := time.Now()
	resp, err := RunSession(ctx, req)
	elapsed := time.Since(start)
	s.runs.Add(1)
	if err != nil {
		s.fails.Add(1)
		var perr *PanicError
		switch {
		case errors.As(err, &perr):
			writeJSON(w, http.StatusInternalServerError, errorBody{
				Error: "session crashed; the server is unaffected",
				Panic: perr.Value,
				Stack: perr.Stack,
			})
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			writeJSON(w, http.StatusGatewayTimeout, errorBody{
				Error: fmt.Sprintf("simulation exceeded its %v budget", budget),
			})
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.fails.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encoding response"})
		return
	}
	s.memo.Put(fp, body)
	s.writeResult(w, body, false, elapsed)
}

// writeResult sends a 200 with the exact memoizable bytes. Everything
// volatile — the memo verdict, the wall time spent — travels in headers so
// the body stays byte-identical between a fresh run and a memo hit.
func (s *Service) writeResult(w http.ResponseWriter, body []byte, memoHit bool, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	if memoHit {
		w.Header().Set("X-Whatif-Memo", "hit")
	} else {
		w.Header().Set("X-Whatif-Memo", "miss")
		w.Header().Set("X-Whatif-Elapsed-Ms", strconv.FormatInt(elapsed.Milliseconds(), 10))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
