package core

// numPhases bounds the phase constants (phaseInput..phaseServe).
const numPhases = 4

// rrQueue is a FIFO queue per phase with round-robin service across phases
// (§3.3): when disk writes pile up, the next service turn still goes to a
// waiting read, keeping the downstream CPU fed.
//
// Each phase FIFO is a head-indexed slice: pop advances the head, and push
// compacts the live window to the front once the dead prefix outgrows it, so
// the backing array is reused instead of endlessly reallocated as the window
// slides.
type rrQueue struct {
	byPhase [numPhases][]*monotask
	head    [numPhases]int
	ring    []int8 // phases in first-seen order
	seen    [numPhases]bool
	cursor  int
	size    int
	// fifo disables the phase rotation (ablation: the §3.3 starvation
	// pathology), serving strictly in arrival order.
	fifo      bool
	order     []*monotask
	orderHead int
}

func newRRQueue() *rrQueue {
	return &rrQueue{}
}

func newFIFOQueue() *rrQueue {
	return &rrQueue{fifo: true}
}

// pushTo appends m to a head-indexed FIFO, compacting first when the dead
// prefix dominates the backing array.
func pushTo(fifo []*monotask, head *int, m *monotask) []*monotask {
	if h := *head; h > 0 && h >= len(fifo)-h {
		n := copy(fifo, fifo[h:])
		for i := n; i < len(fifo); i++ {
			fifo[i] = nil
		}
		fifo = fifo[:n]
		*head = 0
	}
	return append(fifo, m)
}

// push appends m to its phase's FIFO.
func (q *rrQueue) push(m *monotask) {
	if q.fifo {
		q.order = pushTo(q.order, &q.orderHead, m)
		q.size++
		return
	}
	p := m.phase
	if !q.seen[p] {
		q.seen[p] = true
		q.ring = append(q.ring, p)
	}
	q.byPhase[p] = pushTo(q.byPhase[p], &q.head[p], m)
	q.size++
}

// pop removes and returns the next monotask in round-robin phase order, or
// nil if the queue is empty. Empty phases are skipped but stay in the ring:
// a phase that refills (the steady-state read/write alternation) resumes
// its turn.
func (q *rrQueue) pop() *monotask {
	if q.size == 0 {
		return nil
	}
	if q.fifo {
		m := q.order[q.orderHead]
		q.order[q.orderHead] = nil
		q.orderHead++
		q.size--
		return m
	}
	for i := 0; i < len(q.ring); i++ {
		phase := q.ring[q.cursor]
		q.cursor = (q.cursor + 1) % len(q.ring)
		h := q.head[phase]
		fifo := q.byPhase[phase]
		if h >= len(fifo) {
			continue
		}
		m := fifo[h]
		fifo[h] = nil
		q.head[phase] = h + 1
		q.size--
		return m
	}
	panic("core: rrQueue size > 0 but no monotask found")
}

// len reports the number of queued monotasks.
func (q *rrQueue) len() int { return q.size }
