package resource

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTrackerAt(t *testing.T) {
	var tr Tracker
	tr.Set(1, 0.5)
	tr.Set(3, 1.0)
	tr.Set(5, 0)
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{0, 0}, {0.9, 0}, {1, 0.5}, {2, 0.5}, {3, 1.0}, {4.5, 1.0}, {5, 0}, {100, 0},
	}
	for _, c := range cases {
		if got := tr.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTrackerOverwriteSameTime(t *testing.T) {
	var tr Tracker
	tr.Set(1, 0.5)
	tr.Set(1, 0.8)
	if got := tr.At(1); got != 0.8 {
		t.Fatalf("At(1) = %v, want 0.8 (overwrite)", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tr.Len())
	}
}

func TestTrackerCoalescesNoops(t *testing.T) {
	var tr Tracker
	tr.Set(1, 0.5)
	tr.Set(2, 0.5)
	tr.Set(3, 0.5)
	if tr.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 (coalesced)", tr.Len())
	}
}

func TestTrackerDecreasingTimePanics(t *testing.T) {
	var tr Tracker
	tr.Set(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Set with decreasing time did not panic")
		}
	}()
	tr.Set(4, 0)
}

func TestTrackerMean(t *testing.T) {
	var tr Tracker
	// 0 on [0,2), 1 on [2,4), 0.5 on [4,∞)
	tr.Set(2, 1)
	tr.Set(4, 0.5)
	if got := tr.Mean(0, 4); !almostEqual(got, 0.5) {
		t.Errorf("Mean(0,4) = %v, want 0.5", got)
	}
	if got := tr.Mean(2, 4); !almostEqual(got, 1) {
		t.Errorf("Mean(2,4) = %v, want 1", got)
	}
	if got := tr.Mean(0, 8); !almostEqual(got, (0*2+1*2+0.5*4)/8.0) {
		t.Errorf("Mean(0,8) = %v, want 0.5", got)
	}
	if got := tr.Mean(3, 5); !almostEqual(got, 0.75) {
		t.Errorf("Mean(3,5) = %v, want 0.75", got)
	}
	if got := tr.Mean(5, 5); got != 0 {
		t.Errorf("Mean over empty window = %v, want 0", got)
	}
}

func TestTrackerSamples(t *testing.T) {
	var tr Tracker
	tr.Set(0, 0)
	tr.Set(5, 1)
	s := tr.Samples(0, 10, 10)
	if len(s) != 10 {
		t.Fatalf("len(Samples) = %d, want 10", len(s))
	}
	for i := 0; i < 5; i++ {
		if s[i] != 0 {
			t.Errorf("sample %d = %v, want 0", i, s[i])
		}
	}
	for i := 5; i < 10; i++ {
		if s[i] != 1 {
			t.Errorf("sample %d = %v, want 1", i, s[i])
		}
	}
	if tr.Samples(0, 10, 0) != nil {
		t.Error("Samples with n=0 should be nil")
	}
}

// TestTrackerDeltaHalfOpen pins the cumulative-window contract: a transition
// stamped exactly at t0 counts, one stamped exactly at t1 doesn't.
func TestTrackerDeltaHalfOpen(t *testing.T) {
	var tr Tracker
	tr.Set(0, 100)
	tr.Set(2, 250) // +150 stamped exactly at t=2
	tr.Set(5, 400)
	cases := []struct {
		t0, t1 sim.Time
		want   float64
	}{
		{0, 2, 100}, // excludes the t=2 transition
		{2, 5, 150}, // includes t=2, excludes t=5
		{5, 9, 150}, // includes t=5
		{0, 9, 400}, // whole history
		{3, 4, 0},   // quiet interior window
		{2, 2, 0},   // empty window
		{9, 2, 0},   // inverted window
		{-5, 0, 0},  // the t=0 transition belongs to the next window
	}
	for _, c := range cases {
		if got := tr.Delta(c.t0, c.t1); got != c.want {
			t.Errorf("Delta(%v,%v) = %v, want %v", c.t0, c.t1, got, c.want)
		}
	}
}

// TestTrackerDeltaTilesWindows is the regression for the double-count the
// At(t1)-Before(t0) formulation had: adjacent windows sharing a boundary
// where a transition is stamped must sum to the enclosing window.
func TestTrackerDeltaTilesWindows(t *testing.T) {
	var tr Tracker
	cum := 0.0
	// Transitions at every integer time, so every window boundary below
	// lands exactly on a stamped transition — the worst case.
	for i := 0; i <= 10; i++ {
		cum += float64(1 + i)
		tr.Set(sim.Time(i), cum)
	}
	whole := tr.Delta(0, 10)
	split := tr.Delta(0, 3) + tr.Delta(3, 7) + tr.Delta(7, 10)
	if whole != split {
		t.Fatalf("windows do not tile: Delta(0,10) = %v but split sum = %v", whole, split)
	}
	// Demonstrate the closed-window formulation really does double-count
	// here, so this test fails if Delta is ever redefined in terms of it.
	closed := (tr.At(3) - tr.Before(0)) + (tr.At(7) - tr.Before(3)) + (tr.At(10) - tr.Before(7))
	if closed == whole {
		t.Fatal("closed-window sum unexpectedly equals the half-open sum; test lost its teeth")
	}
}

// Property: Mean is always within [min, max] of the recorded values.
func TestPropertyMeanBounded(t *testing.T) {
	f := func(raw []uint8) bool {
		var tr Tracker
		lo, hi := 1.0, 0.0
		for i, r := range raw {
			v := float64(r) / 255
			tr.Set(sim.Time(i), v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(raw) == 0 {
			return true
		}
		m := tr.Mean(0, sim.Time(len(raw)))
		// Value before the first Set is 0.
		if 0 < lo {
			lo = 0
		}
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceTracker is the Tracker before chunked storage: two slices grown
// by append. TestTrackerMatchesReference and FuzzTrackerMatchesReference
// hold Tracker to its results bit for bit.
type referenceTracker struct {
	times  []sim.Time
	values []float64
}

func (tr *referenceTracker) Set(t sim.Time, v float64) {
	n := len(tr.times)
	if n > 0 && t < tr.times[n-1] {
		panic("resource: referenceTracker.Set with decreasing time")
	}
	if n > 0 && tr.times[n-1] == t {
		tr.values[n-1] = v
		return
	}
	if n > 0 && tr.values[n-1] == v {
		return
	}
	tr.times = append(tr.times, t)
	tr.values = append(tr.values, v)
}

func (tr *referenceTracker) At(t sim.Time) float64 {
	lo, hi := 0, len(tr.times)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.times[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return tr.values[lo-1]
}

func (tr *referenceTracker) Before(t sim.Time) float64 {
	lo, hi := 0, len(tr.times)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.times[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return tr.values[lo-1]
}

func (tr *referenceTracker) Delta(t0, t1 sim.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	return tr.Before(t1) - tr.Before(t0)
}

func (tr *referenceTracker) firstAfter(t sim.Time) int {
	lo, hi := 0, len(tr.times)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.times[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (tr *referenceTracker) Mean(t0, t1 sim.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	var area float64
	i := tr.firstAfter(t0)
	cur := 0.0
	if i > 0 {
		cur = tr.values[i-1]
	}
	prev := t0
	for ; i < len(tr.times); i++ {
		t := tr.times[i]
		if t >= t1 {
			break
		}
		area += cur * float64(t-prev)
		cur = tr.values[i]
		prev = t
	}
	area += cur * float64(t1-prev)
	return area / float64(t1-t0)
}

func (tr *referenceTracker) Samples(t0, t1 sim.Time, n int) []float64 {
	if n <= 0 || t1 <= t0 {
		return nil
	}
	out := make([]float64, n)
	step := (t1 - t0) / sim.Time(n)
	idx := tr.firstAfter(t0)
	for i := 0; i < n; i++ {
		lo := t0 + sim.Time(i)*step
		hi := t0 + sim.Time(i+1)*step
		if hi <= lo {
			continue
		}
		for idx < len(tr.times) && tr.times[idx] <= lo {
			idx++
		}
		var area float64
		cur := 0.0
		if idx > 0 {
			cur = tr.values[idx-1]
		}
		prev := lo
		for ; idx < len(tr.times); idx++ {
			t := tr.times[idx]
			if t >= hi {
				break
			}
			area += cur * float64(t-prev)
			cur = tr.values[idx]
			prev = t
		}
		area += cur * float64(hi-prev)
		out[i] = area / float64(hi-lo)
	}
	return out
}

func (tr *referenceTracker) Len() int { return len(tr.times) }

// trackerPair drives a Tracker and a referenceTracker through the same Set
// calls.
type trackerPair struct {
	tr  Tracker
	ref referenceTracker
	// freshOverwrites counts overwrites of a point that was the first of
	// its chunk.
	freshOverwrites int
}

// set applies one Set to both trackers; both must panic or neither.
func (p *trackerPair) set(tb testing.TB, t sim.Time, v float64) {
	tb.Helper()
	if n := p.tr.Len(); n > 0 && p.tr.at(n-1).t == t {
		if _, off := locate(n - 1); off == 0 {
			p.freshOverwrites++
		}
	}
	trPanic, refPanic := panics(func() { p.tr.Set(t, v) }), panics(func() { p.ref.Set(t, v) })
	if trPanic != refPanic {
		tb.Fatalf("Set(%v, %v) after %d points: Tracker panicked %v, reference %v", t, v, p.ref.Len(), trPanic, refPanic)
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// last returns the reference's last transition time (0 when empty).
func (p *trackerPair) last() sim.Time {
	if n := len(p.ref.times); n > 0 {
		return p.ref.times[n-1]
	}
	return 0
}

// same reports whether a and b are the same float64, bit for bit.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compare checks Len exactly and every reader under math.Float64bits: At
// and Before at each transition time and one ulp either side of it, Delta
// between consecutive transition times, and Delta, Mean, Samples and
// AppendSamples over random windows.
func (p *trackerPair) compare(tb testing.TB, rng *rand.Rand) {
	tb.Helper()
	if got, want := p.tr.Len(), p.ref.Len(); got != want {
		tb.Fatalf("Len() = %d, reference %d", got, want)
	}
	times := p.ref.times
	for i, ts := range times {
		for _, q := range []sim.Time{ts, sim.Time(math.Nextafter(float64(ts), math.Inf(-1))), sim.Time(math.Nextafter(float64(ts), math.Inf(1)))} {
			if got, want := p.tr.At(q), p.ref.At(q); !same(got, want) {
				tb.Fatalf("At(%v) = %v, reference %v", q, got, want)
			}
			if got, want := p.tr.Before(q), p.ref.Before(q); !same(got, want) {
				tb.Fatalf("Before(%v) = %v, reference %v", q, got, want)
			}
		}
		if i > 0 {
			if got, want := p.tr.Delta(times[i-1], ts), p.ref.Delta(times[i-1], ts); !same(got, want) {
				tb.Fatalf("Delta(%v, %v) = %v, reference %v", times[i-1], ts, got, want)
			}
		}
	}
	end := p.last() + 1
	for w := 0; w < 40; w++ {
		a, b := sim.Time(rng.Float64())*end-0.5, sim.Time(rng.Float64())*end
		if len(times) > 0 && rng.Intn(2) == 0 {
			// An edge on a transition time: the half-open rules decide.
			a = times[rng.Intn(len(times))]
		}
		if got, want := p.tr.Delta(a, b), p.ref.Delta(a, b); !same(got, want) {
			tb.Fatalf("Delta(%v, %v) = %v, reference %v", a, b, got, want)
		}
		if got, want := p.tr.Mean(a, b), p.ref.Mean(a, b); !same(got, want) {
			tb.Fatalf("Mean(%v, %v) = %v, reference %v", a, b, got, want)
		}
		n := rng.Intn(40)
		got, want := p.tr.Samples(a, b, n), p.ref.Samples(a, b, n)
		if len(got) != len(want) {
			tb.Fatalf("Samples(%v, %v, %d) has %d buckets, reference %d", a, b, n, len(got), len(want))
		}
		for i := range got {
			if !same(got[i], want[i]) {
				tb.Fatalf("Samples(%v, %v, %d)[%d] = %v, reference %v", a, b, n, i, got[i], want[i])
			}
		}
		// AppendSamples extends a non-empty dst, with spare capacity or
		// without, by exactly the buckets Samples returns.
		dst := make([]float64, 1+rng.Intn(3), 4+rng.Intn(2)*n)
		for i := range dst {
			dst[i] = -float64(i + 1)
		}
		head := len(dst)
		wantApp := append(slices.Clone(dst), got...)
		app := p.tr.AppendSamples(dst, a, b, n)
		if len(app) != len(wantApp) {
			tb.Fatalf("AppendSamples(%d values, %v, %v, %d) has %d values, want %d", head, a, b, n, len(app), len(wantApp))
		}
		for i := range app {
			if !same(app[i], wantApp[i]) {
				tb.Fatalf("AppendSamples(%d values, %v, %v, %d)[%d] = %v, want %v", head, a, b, n, i, app[i], wantApp[i])
			}
		}
	}
}

// randomValues is the small value set random sequences draw from, so that
// repeated values (dropped by Set) are common; it includes both zeros.
var randomValues = []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, 3, 1e6}

// TestTrackerMatchesReference drives Tracker and referenceTracker through
// seeded random Set sequences of 0 to 20,000 points, crossing every chunk
// size from 16 to 4,096 and several full 4,096-point chunks. The sequences
// overwrite (some of them the first point of a fresh chunk), repeat values
// and go back in time, which must panic in both.
func TestTrackerMatchesReference(t *testing.T) {
	targets := []int{0, 1, 15, 16, 17, 48, 4080, 4081, 8175, 8176, 8177, 12272, 12273, 20000}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		targets = append(targets, rng.Intn(20001))
	}
	fresh := 0
	for seq, target := range targets {
		var p trackerPair
		now := sim.Time(rng.Intn(3)) // some sequences start at time 0
		for p.ref.Len() < target {
			switch r := rng.Intn(20); {
			case r == 0: // overwrite the last point
				p.set(t, p.last(), randomValues[rng.Intn(len(randomValues))])
			case r == 1 && p.ref.Len() > 0: // repeat the last value
				now += sim.Time(rng.Float64())
				p.set(t, now, p.ref.values[p.ref.Len()-1])
			default:
				now += sim.Time(rng.ExpFloat64())
				p.set(t, now, randomValues[rng.Intn(len(randomValues))])
			}
			if n := p.tr.Len(); n > 0 && rng.Intn(2) == 0 {
				if _, off := locate(n - 1); off == 0 {
					p.set(t, p.last(), randomValues[rng.Intn(len(randomValues))])
				}
			}
		}
		if p.ref.Len() > 0 {
			before := p.ref.Len()
			p.set(t, p.last()-1e-9, 1)
			if p.ref.Len() != before {
				t.Fatalf("sequence %d: a decreasing Set changed the reference", seq)
			}
		}
		p.compare(t, rng)
		fresh += p.freshOverwrites
	}
	if fresh == 0 {
		t.Fatal("no sequence overwrote the first point of a fresh chunk")
	}
}

// FuzzTrackerMatchesReference decodes each byte pair into one Set operation,
// or into a run of up to 4,096 new points so that short inputs reach the
// 4,096-point chunks, and checks Tracker against referenceTracker.
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 255, 3, 255, 0, 0, 1, 7, 2, 9})
	f.Add([]byte{3, 254, 0, 4, 3, 0, 4, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p trackerPair
		now := sim.Time(0)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			v := randomValues[int(arg)%len(randomValues)]
			switch op % 5 {
			case 0: // same time: overwrite
				p.set(t, now, v)
			case 1: // later time
				now += sim.Time(op>>3) + 0.5
				p.set(t, now, v)
			case 2: // later time, last value
				now += 0.25
				if n := p.ref.Len(); n > 0 {
					v = p.ref.values[n-1]
				}
				p.set(t, now, v)
			case 3: // a run of new points with alternating values
				for k := 0; k < 16*(int(arg)+1) && p.ref.Len() < 20000; k++ {
					now++
					p.set(t, now, float64(k%2))
				}
			case 4: // earlier time: both must panic
				p.set(t, now-sim.Time(arg)-1, v)
			}
		}
		p.compare(t, rand.New(rand.NewSource(int64(len(data)))))
	})
}

// TestTrackerGrowthCopiesNothing: n distinct points allocate no more than
// the two append-grown slices did (496, 8,176 and 256,496 B for n = 10, 200
// and 5,000), and 100,000 points take 16 B each plus at most one unused
// 4,096-point chunk and the chunk table, where the slices took 8.2 MB.
func TestTrackerGrowthCopiesNothing(t *testing.T) {
	chunks := func(n int) int64 { k, _ := locate(n - 1); return int64(k + 1) }
	header := int64(unsafe.Sizeof([]point{}))
	for _, c := range []struct {
		n   int
		max int64
	}{
		{10, 496},
		{200, 8176},
		{5000, 256496},
		// The table grows by doubling, so it allocates fewer than twice
		// its final headers.
		{100000, 16*100000 + 16*maxChunk + 2*chunks(100000)*header},
	} {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var tr Tracker
				for j := 0; j < c.n; j++ {
					tr.Set(sim.Time(j), float64(j))
				}
			}
		})
		if got := r.AllocedBytesPerOp(); got > c.max {
			t.Errorf("%d points allocated %d B, want at most %d", c.n, got, c.max)
		}
	}
}

// TestStoppedTrackerRecordsNothing: Stop discards what a tracker recorded,
// and afterwards Set, in any time order, allocates and records nothing, so
// every reader sees an empty timeline.
func TestStoppedTrackerRecordsNothing(t *testing.T) {
	var tr Tracker
	for j := 0; j < 40; j++ {
		tr.Set(sim.Time(j), float64(j%3))
	}
	tr.Stop()
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 40; j++ {
			tr.Set(sim.Time(100-j), float64(j))
		}
	})
	if allocs != 0 {
		t.Errorf("Set on a stopped tracker allocated %v times per 40 calls", allocs)
	}
	if n := tr.Len(); n != 0 {
		t.Errorf("stopped tracker holds %d points", n)
	}
	if v := tr.At(50); v != 0 {
		t.Errorf("At(50) = %v, want 0", v)
	}
	if d := tr.Delta(0, 200); d != 0 {
		t.Errorf("Delta(0, 200) = %v, want 0", d)
	}
	if m := tr.Mean(0, 200); m != 0 {
		t.Errorf("Mean(0, 200) = %v, want 0", m)
	}
	for i, v := range tr.Samples(0, 200, 8) {
		if v != 0 {
			t.Errorf("sample %d = %v, want 0", i, v)
		}
	}
}
