// Package resource implements the device models the virtual cluster is built
// from: processor-sharing CPUs, seek-penalized hard disks, concurrency-
// saturating flash drives, and per-device utilization timelines.
//
// All devices share one fluid-flow core (server.go): active jobs make
// progress at a rate determined by how many jobs are in service, and the
// model recomputes completion times whenever the job set changes. This
// captures the first-order contention effects the paper's evaluation is
// about — throughput collapse under concurrent HDD access, processor sharing
// when more tasks than cores are runnable — without simulating individual
// I/O operations.
package resource

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// Chunk k of a Tracker holds firstChunk<<min(k, doublings) points.
const (
	firstShift    = 4
	firstChunk    = 1 << firstShift
	doublings     = 8
	maxShift      = firstShift + doublings
	maxChunk      = 1 << maxShift                          // 4,096
	doubledPoints = firstChunk<<(doublings+1) - firstChunk // 8,176, in chunks 0..doublings
)

// point is one transition: the tracked value becomes v at time t.
type point struct {
	t sim.Time
	v float64
}

// Tracker records a step function of utilization (0..1) over virtual time.
// Devices call Set whenever their busy fraction changes; experiment code
// reads back means and percentile samples (Figs. 2, 6 and 9 are produced
// from these timelines).
//
// The transitions are stored in chunks that are allocated once, at their
// final size, and never copied: chunk k holds min(16·2^k, 4,096) points.
// Growing one slice with append would re-copy the whole timeline every time
// it outgrew its capacity; at 100,000 points those copies come to 5× the
// points' own size. A timeline of up to 16 points takes one 16-point
// chunk, and at most one chunk (≤ 4,096 points) of any timeline is unused
// capacity. Point i's chunk and offset follow from i by arithmetic
// (locate). The zero value is an empty timeline.
type Tracker struct {
	// cur is the last chunk, sliced to the points recorded in it. Set
	// compares with its last point and appends within its capacity.
	cur []point
	// chunks holds every chunk, cur last, each as allocated (length 0, so
	// Set appends it without reslicing and stays within the inliner's
	// budget); readers reslice a chunk to its capacity.
	chunks [][]point
}

// Set records that the tracked value becomes v at time t. Calls must have
// non-decreasing t; a repeat at the same t overwrites the prior value.
//
// Set is small enough for the compiler to inline into every device's
// update: a new chunk is allocated in place rather than by a call, because
// any call would use most of the inliner's budget. For the same reason a
// stopped tracker needs no check here (see Stop).
func (tr *Tracker) Set(t sim.Time, v float64) {
	c := tr.cur
	if len(c) > 0 {
		if p := &c[len(c)-1]; t > p.t {
			if v == p.v {
				// Coalesce no-op transitions to keep the series compact.
				return
			}
		} else {
			if t < p.t {
				panic("resource: Tracker.Set with decreasing time")
			}
			p.v = v
			return
		}
	}
	if len(c) == cap(c) {
		c = make([]point, 0, firstChunk<<min(len(tr.chunks), doublings))
		tr.chunks = append(tr.chunks, c)
	}
	tr.cur = append(c, point{t, v})
}

// Stop discards the timeline and makes every later Set a no-op, so readers
// see an empty timeline (value 0 throughout). A run whose answer reads only
// its metric records stops its devices' timelines (cluster.StopTimelines)
// and skips their allocation.
//
// A stopped tracker's cur is one point outside every chunk whose time is
// NaN. No time compares greater than NaN, and none less, so Set takes its
// same-instant branch and overwrites that point's value, with no check of
// its own; Len still counts 0 points, since no chunk exists.
func (tr *Tracker) Stop() {
	tr.chunks = nil
	tr.cur = []point{{t: sim.Time(math.NaN())}}
}

// locate returns the chunk holding point i and i's offset in it.
func locate(i int) (k, off int) {
	if i < doubledPoints {
		// Chunk k ≤ doublings starts at point firstChunk·(2^k − 1), so
		// i+firstChunk lies in [firstChunk·2^k, firstChunk·2^(k+1)).
		k = bits.Len(uint(i+firstChunk)) - firstShift - 1
		return k, i + firstChunk - firstChunk<<k
	}
	i -= doubledPoints
	return doublings + 1 + i>>maxShift, i & (maxChunk - 1)
}

// chunkStart returns the index of chunk k's first point.
func chunkStart(k int) int {
	if k <= doublings+1 {
		return firstChunk<<k - firstChunk
	}
	return doubledPoints + (k-doublings-1)<<maxShift
}

// at returns point i, 0 ≤ i < Len().
func (tr *Tracker) at(i int) point {
	k, off := locate(i)
	c := tr.chunks[k]
	return c[:cap(c)][off]
}

// Len reports the number of recorded transitions.
func (tr *Tracker) Len() int {
	// Every chunk before cur is full.
	return chunkStart(len(tr.chunks)) - cap(tr.cur) + len(tr.cur)
}

// valueBefore returns the value of point i-1, or 0 when i is 0.
func (tr *Tracker) valueBefore(i int) float64 {
	if i == 0 {
		return 0
	}
	return tr.at(i - 1).v
}

// firstAfter returns the index of the first transition with time > t
// (Len() if none).
func (tr *Tracker) firstAfter(t sim.Time) int {
	lo, hi := 0, tr.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.at(mid).t <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// firstAtOrAfter returns the index of the first transition with time ≥ t
// (Len() if none).
func (tr *Tracker) firstAtOrAfter(t sim.Time) int {
	lo, hi := 0, tr.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.at(mid).t < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// At returns the tracked value at time t (0 before the first sample).
func (tr *Tracker) At(t sim.Time) float64 { return tr.valueBefore(tr.firstAfter(t)) }

// Before returns the tracked value just before time t (0 if no earlier
// transition). Cumulative-counter users should read windows with Delta, which
// is built on Before at both edges so windows tile without double-counting.
func (tr *Tracker) Before(t sim.Time) float64 { return tr.valueBefore(tr.firstAtOrAfter(t)) }

// Delta returns the growth of a cumulative counter over the half-open
// window [t0, t1): transitions stamped exactly at t0 count, transitions
// stamped exactly at t1 don't. Adjacent windows therefore tile — the sum of
// Delta over [a,b) and [b,c) equals Delta over [a,c). (The older
// At(t1)-Before(t0) formulation counts a transition stamped exactly at b in
// both windows that share the boundary.)
func (tr *Tracker) Delta(t0, t1 sim.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	return tr.Before(t1) - tr.Before(t0)
}

// run returns the points from i up to the end of i's chunk or to point
// n-1, whichever comes first; i < n ≤ Len().
func (tr *Tracker) run(i, n int) []point {
	k, off := locate(i)
	c := tr.chunks[k]
	return c[off:min(cap(c), off+n-i)]
}

// area returns the area under the step function over [lo, hi), where i is
// the first transition after lo and n is Len(), together with the index of
// the first transition at or after hi.
func (tr *Tracker) area(i, n int, lo, hi sim.Time) (float64, int) {
	var area float64
	cur := tr.valueBefore(i)
	prev := lo
scan:
	for i < n {
		for _, p := range tr.run(i, n) {
			if p.t >= hi {
				break scan
			}
			area += cur * float64(p.t-prev)
			cur = p.v
			prev = p.t
			i++
		}
	}
	area += cur * float64(hi-prev)
	return area, i
}

// Mean returns the time-weighted mean value over [t0, t1). Cost is
// O(log T + k) for a timeline of T transitions with k inside the window, so
// narrow windows over long timelines stay cheap.
func (tr *Tracker) Mean(t0, t1 sim.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	area, _ := tr.area(tr.firstAfter(t0), tr.Len(), t0, t1)
	return area / float64(t1-t0)
}

// Samples returns the time-weighted mean over n evenly spaced buckets across
// [t0, t1), suitable for percentile summaries (Fig. 6) or time-series plots
// (Fig. 2): AppendSamples into a fresh slice of exactly n. It returns nil
// when n ≤ 0 or the window is empty.
func (tr *Tracker) Samples(t0, t1 sim.Time, n int) []float64 {
	if n <= 0 || t1 <= t0 {
		return nil
	}
	return tr.AppendSamples(make([]float64, 0, n), t0, t1, n)
}

// AppendSamples appends Samples(t0, t1, n) to dst and returns the extended
// slice; dst is returned unchanged when n ≤ 0 or the window is empty. A
// caller that samples every tick reuses one buffer instead of allocating a
// slice per call. One sweep over the timeline serves all buckets —
// O(log T + k + n) rather than n independent Mean scans.
func (tr *Tracker) AppendSamples(dst []float64, t0, t1 sim.Time, n int) []float64 {
	if n <= 0 || t1 <= t0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	step := (t1 - t0) / sim.Time(n)
	idx, last := tr.firstAfter(t0), tr.Len()
	for i := 0; i < n; i++ {
		lo := t0 + sim.Time(i)*step
		hi := t0 + sim.Time(i+1)*step
		if hi <= lo {
			dst = append(dst, 0)
			continue
		}
		// Transitions stamped exactly at the bucket edge belong to the value
		// carried into the bucket, matching Mean's half-open semantics.
		for idx < last && tr.at(idx).t <= lo {
			idx++
		}
		var area float64
		area, idx = tr.area(idx, last, lo, hi)
		dst = append(dst, area/float64(hi-lo))
	}
	return dst
}
