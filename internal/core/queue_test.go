package core

import "testing"

func mk(phase int) *monotask { return &monotask{phase: int8(phase)} }

func TestRRQueueFIFOWithinPhase(t *testing.T) {
	q := newRRQueue()
	a, b, c := mk(0), mk(0), mk(0)
	q.push(a)
	q.push(b)
	q.push(c)
	if q.pop() != a || q.pop() != b || q.pop() != c {
		t.Fatal("single-phase queue is not FIFO")
	}
	if q.pop() != nil {
		t.Fatal("empty queue should pop nil")
	}
}

func TestRRQueueRoundRobinAcrossPhases(t *testing.T) {
	q := newRRQueue()
	r1, r2 := mk(phaseInput), mk(phaseInput)
	w1, w2 := mk(phaseOutput), mk(phaseOutput)
	// Writes queued first — the §3.3 starvation scenario.
	q.push(w1)
	q.push(w2)
	q.push(r1)
	q.push(r2)
	got := []*monotask{q.pop(), q.pop(), q.pop(), q.pop()}
	want := []*monotask{w1, r1, w2, r2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got phase %d, want phase %d (round robin)", i, got[i].phase, want[i].phase)
		}
	}
}

func TestRRQueuePhaseRefills(t *testing.T) {
	q := newRRQueue()
	q.push(mk(0))
	q.push(mk(1))
	q.pop() // phase 0
	q.pop() // phase 1
	a, b := mk(1), mk(0)
	q.push(a)
	q.push(b)
	// Cursor is back at phase 0, so b (phase 0) goes first.
	if got := q.pop(); got != b {
		t.Fatalf("expected refilled phase 0 first, got phase %d", got.phase)
	}
	if got := q.pop(); got != a {
		t.Fatalf("expected phase 1 second, got phase %d", got.phase)
	}
}

func TestRRQueueSkipsEmptyPhases(t *testing.T) {
	q := newRRQueue()
	q.push(mk(0))
	q.pop()
	m := mk(2)
	q.push(m)
	if got := q.pop(); got != m {
		t.Fatal("queue failed to skip an empty phase")
	}
	if q.len() != 0 {
		t.Fatalf("len = %d, want 0", q.len())
	}
}

func TestRRQueueLen(t *testing.T) {
	q := newRRQueue()
	for i := 0; i < 5; i++ {
		q.push(mk(i % 2))
	}
	if q.len() != 5 {
		t.Fatalf("len = %d, want 5", q.len())
	}
	q.pop()
	if q.len() != 4 {
		t.Fatalf("len = %d, want 4", q.len())
	}
}
