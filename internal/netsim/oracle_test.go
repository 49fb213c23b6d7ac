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
// When that component held every active flow, the rerate may have re-run only
// its last rounds over the flows that froze in them, so the check re-solves
// every active flow over every link.
func checkLastRerate(t *testing.T, f *Fabric, what string) {
	t.Helper()
	links, flows := f.compLinks, f.compFlows
	if f.ckRounds >= 0 {
		links, flows = make([]int, 2*len(f.nics)), f.order
		for l := range links {
			links[l] = l
		}
	}
	want := referenceWaterFill(f, links, flows)
	for i, fl := range flows {
		if math.Float64bits(fl.rate) != math.Float64bits(want[i]) {
			t.Fatalf("%s: flow %d (%d→%d) of %d solved: rate %v (%#x), reference %v (%#x)",
				what, i, fl.src, fl.dst, len(flows), fl.rate, math.Float64bits(fl.rate),
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

// refillCase drives a fabric the way a shuffle does: every finish starts the
// next flow, so most rerates are single starts and finishes that resume the
// last solve's rounds. 20 NICs sit 1e-13 apart in speed, so links tie within
// the water-filling's 1e-12 limit without tying exactly, which is where a
// candidate link can lose its candidacy mid-round. Half the flows share one
// size, so flows that froze together finish at one instant; a few random
// Cancels and one mid-run SetLinkSpeed interleave. Every rerate is checked
// against the reference as it happens. It returns the fabric's solve counts
// and how many events retired several flows at once.
func refillCase(t *testing.T, seed int64) (stats solveStats, multi int) {
	t.Helper()
	const machines = 20
	rng := rand.New(rand.NewSource(seed))
	bw := make([]float64, machines)
	for i := range bw {
		bw[i] = 125e6 * (1 + float64(rng.Intn(20))*1e-13)
	}
	eng := sim.NewEngine()
	f := NewFabricBW(eng, bw)
	check := func(what string, i int) {
		checkLastRerate(t, f, fmt.Sprintf("seed %d, %s %d", seed, what, i))
	}

	live := 32 + rng.Intn(97)
	total := 3 * live
	var open []*Flow // handles whose done has not run, for Cancel to pick from
	drop := func(fl *Flow) {
		for i, h := range open {
			if h == fl {
				open = append(open[:i], open[i+1:]...)
				return
			}
		}
	}
	started, finished := 0, 0
	var start func()
	start = func() {
		if started == total {
			return
		}
		started++
		src := rng.Intn(machines)
		dst := rng.Intn(machines - 1)
		if dst >= src {
			dst++
		}
		size := int64(16) << 20
		if rng.Intn(2) == 0 {
			size = int64(4+rng.Intn(60)) << 20
		}
		var fl *Flow
		fl = f.Transfer(src, dst, size, func() {
			finished++
			check("finish", finished) // the retiring rerate, or the last refill's
			drop(fl)
			start()
		})
		open = append(open, fl)
		check("start", started)
	}
	for started < live {
		start()
	}
	for i := 0; i < 8; i++ {
		eng.At(sim.Time(rng.Float64()*4), func() {
			if len(open) == 0 {
				return
			}
			fl := open[rng.Intn(len(open))]
			drop(fl)
			f.Cancel(fl)
			check("cancel", i)
			start()
		})
	}
	machine, factor := rng.Intn(machines), 1-float64(1+rng.Intn(5))*1e-13
	eng.At(sim.Time(rng.Float64()*3), func() {
		f.SetLinkSpeed(machine, factor)
		check("link speed change", machine)
	})
	for step := 0; ; step++ {
		before := finished
		if !eng.Step() {
			break
		}
		if finished-before > 1 {
			multi++
		}
		check("event", step)
	}
	if f.ActiveFlows() != 0 {
		t.Fatalf("seed %d: %d flows left after draining", seed, f.ActiveFlows())
	}
	return f.stats, multi
}

// TestWaterFillMatchesReferenceRefills runs 40 refill-shaped cases. Most of
// their rerates must resume above round 0, or the case would pass without
// testing a resume, and some events must retire several flows at once.
func TestWaterFillMatchesReferenceRefills(t *testing.T) {
	var total solveStats
	multi := 0
	for seed := int64(1); seed <= 40; seed++ {
		stats, m := refillCase(t, seed)
		total.solves += stats.solves
		total.resumed += stats.resumed
		multi += m
	}
	if 2*total.resumed <= total.solves {
		t.Fatalf("%d of %d rerates resumed above round 0, want most", total.resumed, total.solves)
	}
	if multi == 0 {
		t.Fatal("no event retired several flows at once")
	}
	t.Logf("%d of %d rerates resumed above round 0; %d events retired several flows", total.resumed, total.solves, multi)
}

// TestSparseComponentKeepsNoCheckpoint: the same four flows resume from a
// checkpoint on a 4-machine fabric, where they use 5 of its 8 links, and
// keep none on a 100-machine fabric, where the checkpoint's rows would span
// 200 links to describe 5. Both solve every rerate bit-identically.
func TestSparseComponentKeepsNoCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		machines int
		resumes  bool
	}{{4, true}, {100, false}} {
		eng := sim.NewEngine()
		f := NewFabric(eng, tc.machines, 125e6)
		// Machines 1-3 send to machine 0, whose ingress freezes them in round
		// 0. Machine 1 also sends to machine 2: that flow freezes in round 1
		// and finishes first, so its start and its finish resume at round 1.
		f.Transfer(1, 0, 8<<20, func() {})
		f.Transfer(2, 0, 8<<20, func() {})
		f.Transfer(3, 0, 8<<20, func() {})
		f.Transfer(1, 2, 1<<20, func() {})
		checkLastRerate(t, f, fmt.Sprintf("%d machines, last start", tc.machines))
		if kept := f.ckRounds >= 0; kept != tc.resumes {
			t.Errorf("%d machines: checkpoint kept = %v, want %v", tc.machines, kept, tc.resumes)
		}
		drainChecked(t, eng, f, fmt.Sprintf("%d machines", tc.machines))
		if resumed := f.stats.resumed > 0; resumed != tc.resumes {
			t.Errorf("%d machines: %d of %d rerates resumed above round 0, want resumes = %v",
				tc.machines, f.stats.resumed, f.stats.solves, tc.resumes)
		}
	}
}

// handCheckpoint installs a hand-built two-round checkpoint on a two-machine
// fabric (links 0 and 1 egress, 2 and 3 ingress). Every link carries one
// unfrozen flow at 125 MB/s in every row, far above both rounds' limits, and
// none was ever a candidate, so a flow from machine 0 to machine 1, on links
// 0 and 3, starts no earlier than after the last round.
func handCheckpoint() *Fabric {
	f := NewFabric(sim.NewEngine(), 2, 125e6)
	f.ckRounds = 2
	f.ckShare = []float64{10e6, 20e6}
	f.ckLimit = []float64{10e6 * (1 + 1e-12), 20e6 * (1 + 1e-12)}
	f.ckCap = make([]float64, 3*4)
	f.ckCnt = make([]int, 3*4)
	for i := range f.ckCap {
		f.ckCap[i], f.ckCnt[i] = 125e6, 1
	}
	for l := range f.firstCand {
		f.firstCand[l] = never
	}
	return f
}

// TestStartRoundTriggers pins the start rule on hand-built checkpoint rows,
// one case per way a link carrying one more flow can change a round.
func TestStartRoundTriggers(t *testing.T) {
	// A rounding-edge promotion: a link with k unfrozen flows whose share
	// with the new flow, c/(k+1), lies just above round 0's limit, but whose
	// share after one freeze on it, (c-share)/k, rounds down to the limit.
	// In exact arithmetic that share only rises; only the replay of the
	// round's freezes sees the rounding.
	const k = 26389
	share := 125e6 / 3.0
	limit := share * (1 + 1e-12)
	c := float64(k+1) * limit
	for shareAtMost(c, k+1, limit) {
		c = math.Nextafter(c, math.Inf(1))
	}
	if !shareAtMost(c-share, k, limit) {
		t.Fatalf("c = %v: no promotion after one freeze; the rounding case moved", c)
	}
	promoted := func(freezes int) func(f *Fabric) {
		return func(f *Fabric) {
			f.ckShare[0], f.ckLimit[0] = share, limit
			f.ckCap[0], f.ckCnt[0] = c, k
			f.ckCap[4], f.ckCnt[4] = c, k-freezes
			for i := 0; i < freezes; i++ {
				f.ckCap[4] -= share
			}
		}
	}

	for _, tc := range []struct {
		name string
		edit func(f *Fabric)
		want int
	}{
		{"no round qualifies", func(f *Fabric) {}, 2},
		{"lower share", func(f *Fabric) {
			f.ckCap[1*4+3] = 30e6 // 15e6 with the new flow, below round 1's 20e6
		}, 1},
		{"at the limit", func(f *Fabric) {
			f.ckCap[1*4+0] = 2 * f.ckLimit[1] // exactly the limit with the new flow
		}, 1},
		{"already a candidate", func(f *Fabric) { f.firstCand[3] = 1 }, 1},
		{"earliest candidate link", func(f *Fabric) { f.firstCand[3], f.firstCand[0] = 1, 0 }, 0},
		{"promoted mid-round", promoted(1), 0},
		{"no freeze to promote it", promoted(0), 2},
		{"other links ignored", func(f *Fabric) {
			f.ckCap[0*4+1], f.ckCap[0*4+2] = 0, 0
			f.firstCand[1], f.firstCand[2] = 0, 0
		}, 2},
	} {
		f := handCheckpoint()
		tc.edit(f)
		if got := f.startRound(0, 3); got != tc.want {
			t.Errorf("%s: startRound = %d, want %d", tc.name, got, tc.want)
		}
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

	f.queue(0, 3, 0)
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
