package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// The bit-identity oracle: every rerate's water-filling must produce exactly
// the rates of the loop it replaced, which rescanned every component flow in
// every round. After each flow start, finish and link-speed change, the test
// re-solves the component the fabric just solved with that loop and compares
// rates with math.Float64bits.

// referenceWaterFill is the full-scan water-filling loop, kept as the oracle.
// It is the former body of rerateTouched's water-filling step, unchanged but
// for holding rates and frozen marks in local slices instead of on the flows.
func referenceWaterFill(f *Fabric, compLinks []int, compFlows []*Flow) []float64 {
	n := len(f.nics)
	linkCap := make([]float64, 2*n)
	linkCnt := make([]int, 2*n)
	rate := make([]float64, len(compFlows))
	frozen := make([]bool, len(compFlows))

	for _, l := range compLinks {
		if l < n {
			linkCap[l] = f.nics[l].egressBW
		} else {
			linkCap[l] = f.nics[l-n].ingressBW
		}
		linkCnt[l] = 0
	}
	for i, fl := range compFlows {
		rate[i] = 0
		linkCnt[fl.src]++
		linkCnt[n+fl.dst]++
	}
	unfrozen := len(compFlows)
	for unfrozen > 0 {
		// Find the bottleneck link: smallest fair share.
		share := math.MaxFloat64
		for _, l := range compLinks {
			if linkCnt[l] > 0 {
				if s := linkCap[l] / float64(linkCnt[l]); s < share {
					share = s
				}
			}
		}
		// Freeze every flow traversing a link at exactly that share.
		progress := false
		for i, fl := range compFlows {
			if frozen[i] {
				continue
			}
			se := linkCap[fl.src] / float64(linkCnt[fl.src])
			si := linkCap[n+fl.dst] / float64(linkCnt[n+fl.dst])
			if se <= share*(1+1e-12) || si <= share*(1+1e-12) {
				rate[i] = share
				frozen[i] = true
				unfrozen--
				progress = true
				linkCap[fl.src] -= share
				linkCap[n+fl.dst] -= share
				linkCnt[fl.src]--
				linkCnt[n+fl.dst]--
			}
		}
		if !progress {
			panic("netsim: water-filling failed to make progress")
		}
	}
	return rate
}

// checkLastRerate re-solves the component of the fabric's most recent rerate
// with the reference loop and fails unless every rate matches bit for bit.
func checkLastRerate(t *testing.T, f *Fabric, what string) {
	t.Helper()
	want := referenceWaterFill(f, f.compLinks, f.compFlows)
	for i, fl := range f.compFlows {
		if math.Float64bits(fl.rate) != math.Float64bits(want[i]) {
			t.Fatalf("%s: flow %d (%d→%d) of %d in component: rate %v (%#x), reference %v (%#x)",
				what, i, fl.src, fl.dst, len(f.compFlows), fl.rate, math.Float64bits(fl.rate),
				want[i], math.Float64bits(want[i]))
		}
	}
}

// drainChecked runs the engine to empty, checking the rerate every event
// triggers (each event is a flow completion or a scheduled link-speed
// change).
func drainChecked(t *testing.T, eng *sim.Engine, f *Fabric, what string) {
	t.Helper()
	for step := 0; eng.Step(); step++ {
		checkLastRerate(t, f, fmt.Sprintf("%s, event %d", what, step))
	}
	if f.ActiveFlows() != 0 {
		t.Fatalf("%s: %d flows left after draining", what, f.ActiveFlows())
	}
}

// TestWaterFillMatchesReferenceRandomCases covers the property tests' 250
// random scenarios: flows start one by one with seeded sizes, then drain.
func TestWaterFillMatchesReferenceRandomCases(t *testing.T) {
	for seed := int64(1); seed <= 250; seed++ {
		c := randomCase(seed)
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		f := NewFabricBW(eng, c.bw)
		for i, p := range c.pairs {
			f.Transfer(p[0], p[1], int64(1+rng.Intn(64))<<20, func() {})
			checkLastRerate(t, f, fmt.Sprintf("seed %d, start %d", seed, i))
		}
		drainChecked(t, eng, f, fmt.Sprintf("seed %d", seed))
	}
}

// sortCase draws a shuffle-shaped scenario: 20 machines, 200–1,500 flows
// with duplicate (src, dst) pairs, and some NICs degraded with SetLinkSpeed
// before and while the flows run. Even seeds sweep all-to-all as the sort's
// reducers do, odd seeds draw pairs at random. NIC speeds sit a few 1e-14
// apart around 1 Gb/s, with a quarter of them far off, so links tie at the
// bottleneck within the water-filling's 1e-12 tolerance without tying
// exactly: the case where a candidate flow can fail its freeze test in-round.
type sortCase struct {
	bw       []float64
	pairs    [][2]int
	sizes    []int64
	degraded map[int]float64 // machine → speed factor applied up front
	later    [][2]float64    // (virtual time, machine) of mid-run halvings
}

func newSortCase(seed int64) sortCase {
	const machines = 20
	rng := rand.New(rand.NewSource(seed))
	c := sortCase{bw: make([]float64, machines), degraded: map[int]float64{}}
	for i := range c.bw {
		c.bw[i] = 125e6 * (1 + float64(rng.Intn(6))*1e-14)
		if rng.Intn(4) == 0 {
			c.bw[i] *= 0.25 + rng.Float64()
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		c.degraded[rng.Intn(machines)] = 0.1 + 0.8*rng.Float64()
	}
	for k := rng.Intn(3); k > 0; k-- {
		c.later = append(c.later, [2]float64{rng.Float64() * 2, float64(rng.Intn(machines))})
	}
	add := func(src, dst int) {
		c.pairs = append(c.pairs, [2]int{src, dst})
		c.sizes = append(c.sizes, int64(4+rng.Intn(60))<<20)
	}
	for want := 200 + rng.Intn(1301); len(c.pairs) < want; {
		if seed%2 == 1 {
			src := rng.Intn(machines)
			dst := rng.Intn(machines - 1)
			if dst >= src {
				dst++
			}
			add(src, dst)
			continue
		}
		for src := 0; src < machines && len(c.pairs) < want; src++ {
			for dst := 0; dst < machines && len(c.pairs) < want; dst++ {
				if src != dst && rng.Intn(8) != 0 {
					add(src, dst)
				}
			}
		}
	}
	return c
}

// TestWaterFillMatchesReferenceSortShapes covers shuffle-shaped components
// the size of the §5.2 sort's, where many links tie at the bottleneck.
func TestWaterFillMatchesReferenceSortShapes(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		c := newSortCase(seed)
		eng := sim.NewEngine()
		f := NewFabricBW(eng, c.bw)
		for machine := 0; machine < len(c.bw); machine++ {
			if factor, ok := c.degraded[machine]; ok {
				f.SetLinkSpeed(machine, factor)
			}
		}
		for _, ev := range c.later {
			machine := int(ev[1])
			eng.At(sim.Time(ev[0]), func() { f.SetLinkSpeed(machine, 0.5) })
		}
		for i, p := range c.pairs {
			f.Transfer(p[0], p[1], c.sizes[i], func() {})
			if i%16 == 0 || i == len(c.pairs)-1 {
				checkLastRerate(t, f, fmt.Sprintf("seed %d, start %d", seed, i))
			}
		}
		drainChecked(t, eng, f, fmt.Sprintf("seed %d", seed))
	}
}

// TestQueueQueuesLaterUnfrozenFlows pins queue's bookkeeping: the link
// becomes a candidate, only its unfrozen flows after the given compFlows
// index are queued, and frozen entries drop out of its list.
func TestQueueQueuesLaterUnfrozenFlows(t *testing.T) {
	f := NewFabric(sim.NewEngine(), 2, 100)
	f.linkFlows = []int32{1, 3, 4, 6, 70}
	f.linkOff[0], f.linkEnd[0] = 0, 5
	f.flowFrozen = make([]bool, 71)
	f.flowFrozen[3] = true
	f.visit = make([]uint64, 2)
	f.candEpoch = 1

	f.queue(0, 3)
	if f.linkCand[0] != 1 {
		t.Fatal("queued link did not become a candidate")
	}
	if f.visit[0] != 1<<4|1<<6 || f.visit[1] != 1<<6 {
		t.Fatalf("queued %#x %#x, want flows 4, 6 and 70", f.visit[0], f.visit[1])
	}
	if got := f.linkFlows[f.linkOff[0]:f.linkEnd[0]]; fmt.Sprint(got) != "[1 4 6 70]" {
		t.Fatalf("list after queue = %v, want the frozen flow dropped", got)
	}
}

// TestShareAtMostMatchesDivision: shareAtMost must give the division's answer
// for every limit, including limits a few ulps from the quotient and at the
// edges of its 1e-14 product shortcut.
func TestShareAtMostMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		k := 1 + rng.Intn(4000)
		c := 125e6 * (0.01 + rng.Float64()) * float64(1+rng.Intn(k))
		q := c / float64(k)
		limits := []float64{q, q * (1 + 1e-14), q * (1 - 1e-14), q * (1 + 2e-14), q * (1 - 2e-14), q * (1 + 1e-12)}
		for lim, i := q, 0; i < 8; i++ {
			lim = math.Nextafter(lim, 0)
			limits = append(limits, lim)
		}
		for lim, i := q, 0; i < 8; i++ {
			lim = math.Nextafter(lim, math.Inf(1))
			limits = append(limits, lim)
		}
		for _, limit := range limits {
			if got, want := shareAtMost(c, k, limit), q <= limit; got != want {
				t.Fatalf("cap %v, cnt %d, limit %v: shareAtMost %v, division %v", c, k, limit, got, want)
			}
		}
	}
}
