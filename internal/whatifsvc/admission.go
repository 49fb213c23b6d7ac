package whatifsvc

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrOverloaded is returned by Acquire when the tenant's queue is full: the
// server is shedding load and the caller should come back after RetryAfter.
var ErrOverloaded = errors.New("whatifsvc: overloaded, try again later")

// admitter is the fair-share admission gate. It owns a fixed pool of
// simulation slots; requests over the limit wait in bounded per-tenant FIFO
// queues, and freed slots go to the waiting tenant admitted least often so
// far. A full tenant queue sheds immediately with ErrOverloaded rather than
// building an unbounded backlog.
type admitter struct {
	mu            sync.Mutex
	maxConcurrent int
	queueDepth    int // per tenant

	running int
	tenants map[string]*tenantQueue
	waiting int // total queued waiters across tenants

	shed int64 // requests rejected with ErrOverloaded

	// latencies is a ring of recent admission waits for the p99 figure.
	latencies [1024]time.Duration
	latN      int
	latTotal  int64
}

type tenantQueue struct {
	name   string
	served int // admissions so far
	q      []chan struct{}
}

func newAdmitter(maxConcurrent, queueDepth int) *admitter {
	return &admitter{
		maxConcurrent: maxConcurrent,
		queueDepth:    queueDepth,
		tenants:       make(map[string]*tenantQueue),
	}
}

func (a *admitter) tenant(name string) *tenantQueue {
	t, ok := a.tenants[name]
	if !ok {
		t = &tenantQueue{name: name}
		a.tenants[name] = t
	}
	return t
}

// Acquire blocks until the tenant gets a simulation slot, the context dies,
// or the tenant's queue is full (ErrOverloaded, immediately). On success the
// returned release function must be called exactly once.
func (a *admitter) Acquire(ctx context.Context, tenant string) (func(), error) {
	start := time.Now()
	a.mu.Lock()
	t := a.tenant(tenant)
	if a.running < a.maxConcurrent && a.waiting == 0 {
		a.running++
		t.served++
		a.recordLatency(0)
		a.mu.Unlock()
		return a.releaseFunc(), nil
	}
	if len(t.q) >= a.queueDepth {
		a.shed++
		a.mu.Unlock()
		return nil, ErrOverloaded
	}
	ch := make(chan struct{})
	t.q = append(t.q, ch)
	a.waiting++
	a.mu.Unlock()

	select {
	case <-ch:
		a.mu.Lock()
		a.recordLatency(time.Since(start))
		a.mu.Unlock()
		return a.releaseFunc(), nil
	case <-ctx.Done():
		a.mu.Lock()
		defer a.mu.Unlock()
		select {
		case <-ch:
			// Lost the race: a slot was handed to us as the context died.
			// Hand it onward instead of leaking it.
			a.releaseLocked()
		default:
			a.removeWaiter(t, ch)
		}
		return nil, ctx.Err()
	}
}

func (a *admitter) removeWaiter(t *tenantQueue, ch chan struct{}) {
	for i := range t.q {
		if t.q[i] == ch {
			t.q = append(t.q[:i], t.q[i+1:]...)
			a.waiting--
			return
		}
	}
}

func (a *admitter) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			a.releaseLocked()
		})
	}
}

// releaseLocked frees one slot and hands it to the waiting tenant with the
// fewest admissions (ties break by name for determinism).
func (a *admitter) releaseLocked() {
	a.running--
	var next *tenantQueue
	for _, t := range a.tenants {
		if len(t.q) == 0 {
			continue
		}
		if next == nil || t.served < next.served || (t.served == next.served && t.name < next.name) {
			next = t
		}
	}
	if next == nil || a.running >= a.maxConcurrent {
		return
	}
	ch := next.q[0]
	next.q = next.q[1:]
	a.waiting--
	a.running++
	next.served++
	close(ch)
}

func (a *admitter) recordLatency(d time.Duration) {
	a.latencies[a.latN%len(a.latencies)] = d
	a.latN++
	a.latTotal++
}

// P99Latency reports the 99th-percentile admission wait over the recent
// window (zero when nothing has been admitted).
func (a *admitter) P99Latency() time.Duration {
	a.mu.Lock()
	n := a.latN
	if n > len(a.latencies) {
		n = len(a.latencies)
	}
	samples := make([]time.Duration, n)
	copy(samples, a.latencies[:n])
	a.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := (99*n - 1) / 100
	return samples[idx]
}

// RetryAfter estimates how long a shed caller should back off: one second
// per queued-backlog multiple of the slot pool, at least one.
func (a *admitter) RetryAfter() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	secs := 1 + a.waiting/a.maxConcurrent
	return time.Duration(secs) * time.Second
}

// Stats snapshots the admitter's counters.
func (a *admitter) Stats() (running, waiting int, shed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running, a.waiting, a.shed
}
