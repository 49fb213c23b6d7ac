package netsim

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 2, 100e6)
	var done sim.Time
	f.Transfer(0, 1, 200e6, func() { done = eng.Now() })
	eng.Run()
	if !almostEqual(float64(done), 2.0) {
		t.Fatalf("200 MB over 100 MB/s link finished at %v, want 2.0", done)
	}
}

func TestTwoFlowsShareEgress(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 3, 100e6)
	var t1, t2 sim.Time
	f.Transfer(0, 1, 100e6, func() { t1 = eng.Now() })
	f.Transfer(0, 2, 100e6, func() { t2 = eng.Now() })
	eng.Run()
	// Both limited by machine 0's egress: 50 MB/s each.
	if !almostEqual(float64(t1), 2.0) || !almostEqual(float64(t2), 2.0) {
		t.Fatalf("flows finished at %v, %v; want both 2.0", t1, t2)
	}
}

func TestTwoFlowsShareIngress(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 3, 100e6)
	var t1, t2 sim.Time
	f.Transfer(0, 2, 100e6, func() { t1 = eng.Now() })
	f.Transfer(1, 2, 100e6, func() { t2 = eng.Now() })
	eng.Run()
	if !almostEqual(float64(t1), 2.0) || !almostEqual(float64(t2), 2.0) {
		t.Fatalf("incast flows finished at %v, %v; want both 2.0", t1, t2)
	}
}

func TestDisjointFlowsDontInterfere(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 4, 100e6)
	var t1, t2 sim.Time
	f.Transfer(0, 1, 100e6, func() { t1 = eng.Now() })
	f.Transfer(2, 3, 100e6, func() { t2 = eng.Now() })
	eng.Run()
	if !almostEqual(float64(t1), 1.0) || !almostEqual(float64(t2), 1.0) {
		t.Fatalf("disjoint flows finished at %v, %v; want both 1.0 (full bisection)", t1, t2)
	}
}

func TestMaxMinFairnessUnevenDemand(t *testing.T) {
	// Machine 0 sends to 1 and 2. Machine 3 also sends to 2.
	// Receiver 2's ingress carries two flows (25 MB/s... let's derive):
	// Links: 0-egress has flows A(0→1), B(0→2); 2-ingress has B, C(3→2).
	// Water-filling with all caps 100: every link with 2 flows has share 50.
	// Freeze A,B at 50 (0-egress), C then gets remaining 2-ingress cap 50.
	// All flows: 50 MB/s.
	eng := sim.NewEngine()
	f := NewFabric(eng, 4, 100e6)
	var done [3]sim.Time
	f.Transfer(0, 1, 50e6, func() { done[0] = eng.Now() })
	f.Transfer(0, 2, 50e6, func() { done[1] = eng.Now() })
	f.Transfer(3, 2, 50e6, func() { done[2] = eng.Now() })
	eng.Run()
	for i, d := range done {
		if !almostEqual(float64(d), 1.0) {
			t.Fatalf("flow %d finished at %v, want 1.0", i, d)
		}
	}
}

func TestRateIncreasesWhenCompetitorFinishes(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 3, 100e6)
	var tShort, tLong sim.Time
	f.Transfer(0, 1, 50e6, func() { tShort = eng.Now() })
	f.Transfer(0, 2, 150e6, func() { tLong = eng.Now() })
	eng.Run()
	// Share 50 each: short finishes at 1.0 with long having 100 MB left,
	// which then runs at 100 MB/s ⇒ finishes at 2.0.
	if !almostEqual(float64(tShort), 1.0) {
		t.Fatalf("short flow finished at %v, want 1.0", tShort)
	}
	if !almostEqual(float64(tLong), 2.0) {
		t.Fatalf("long flow finished at %v, want 2.0", tLong)
	}
}

func TestLocalTransferIsFree(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 2, 100e6)
	var done sim.Time = -1
	f.Transfer(0, 0, 1e12, func() { done = eng.Now() })
	eng.Run()
	if done != 0 {
		t.Fatalf("local transfer finished at %v, want 0", done)
	}
}

func TestZeroByteTransferCompletes(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 2, 100e6)
	fired := false
	f.Transfer(0, 1, 0, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-byte transfer never completed")
	}
}

func TestCancelFreesBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 3, 100e6)
	var survivor sim.Time
	fl := f.Transfer(0, 1, 1e9, func() { t.Error("cancelled flow completed") })
	f.Transfer(0, 2, 100e6, func() { survivor = eng.Now() })
	eng.At(1, func() { f.Cancel(fl) })
	eng.Run()
	// Survivor: 50 MB/s on [0,1) = 50 MB done, then 100 MB/s ⇒ done at 1.5.
	if !almostEqual(float64(survivor), 1.5) {
		t.Fatalf("survivor finished at %v, want 1.5", survivor)
	}
	if f.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d, want 0", f.ActiveFlows())
	}
}

func TestUtilizationTracked(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 2, 100e6)
	f.Transfer(0, 1, 100e6, func() {})
	eng.Run()
	if got := f.NIC(0).UtilOut.Mean(0, 1); !almostEqual(got, 1.0) {
		t.Fatalf("egress utilization = %v, want 1.0", got)
	}
	if got := f.NIC(1).UtilIn.Mean(0, 1); !almostEqual(got, 1.0) {
		t.Fatalf("ingress utilization = %v, want 1.0", got)
	}
	if got := f.NIC(1).UtilOut.Mean(0, 1); got != 0 {
		t.Fatalf("idle direction utilization = %v, want 0", got)
	}
}

func TestAllToAllShuffleSymmetry(t *testing.T) {
	// n machines, each sending the same volume to every other machine:
	// everything should finish simultaneously at (n−1)·vol / linkBW... with
	// per-link fair shares, each egress carries (n−1) flows of vol bytes.
	const n = 4
	const vol = 30e6
	eng := sim.NewEngine()
	f := NewFabric(eng, n, 100e6)
	var last sim.Time
	count := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			f.Transfer(s, d, int64(vol), func() {
				count++
				last = eng.Now()
			})
		}
	}
	eng.Run()
	if count != n*(n-1) {
		t.Fatalf("completed %d flows, want %d", count, n*(n-1))
	}
	want := (n - 1) * vol / 100e6
	if !almostEqual(float64(last), want) {
		t.Fatalf("all-to-all finished at %v, want %v", last, want)
	}
}

func TestPropertyConservation(t *testing.T) {
	// For any single-sender fan-out, total completion time equals total
	// bytes / egress bandwidth (the egress link is work-conserving).
	for _, flows := range [][]int64{{10e6}, {10e6, 20e6}, {5e6, 5e6, 5e6, 85e6}} {
		eng := sim.NewEngine()
		f := NewFabric(eng, len(flows)+1, 100e6)
		var last sim.Time
		var total int64
		for i, b := range flows {
			total += b
			f.Transfer(0, i+1, b, func() { last = eng.Now() })
		}
		eng.Run()
		want := float64(total) / 100e6
		if !almostEqual(float64(last), want) {
			t.Fatalf("fan-out %v finished at %v, want %v", flows, last, want)
		}
	}
}

func TestTransferOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 2, 100e6)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range transfer did not panic")
		}
	}()
	f.Transfer(0, 5, 10, func() {})
}

// TestPropertyMaxMinInvariants: after any set of transfers starts, the
// computed rates must satisfy the max-min conditions — no link
// oversubscribed, and every flow limited by at least one saturated link.
func TestPropertyMaxMinInvariants(t *testing.T) {
	check := func(seed int64) {
		rng := newDeterministicRand(seed)
		eng := sim.NewEngine()
		n := 3 + rng.next()%5
		f := NewFabric(eng, n, 100e6)
		flows := make([]*Flow, 0, 20)
		for i := 0; i < 20; i++ {
			src := rng.next() % n
			dst := rng.next() % n
			if src == dst {
				dst = (dst + 1) % n
			}
			fl := f.Transfer(src, dst, int64(rng.next()%100+1)*1e6, func() {})
			if fl.Rate() > 0 || fl.Remaining() > 0 {
				flows = append(flows, fl)
			}
		}
		// Validate the rate assignment before anything completes.
		egress := make([]float64, n)
		ingress := make([]float64, n)
		for _, fl := range flows {
			if !fl.active {
				continue
			}
			egress[fl.src] += fl.rate
			ingress[fl.dst] += fl.rate
		}
		for i := 0; i < n; i++ {
			if egress[i] > 100e6*(1+1e-9) || ingress[i] > 100e6*(1+1e-9) {
				t.Fatalf("seed %d: link %d oversubscribed: out=%v in=%v", seed, i, egress[i], ingress[i])
			}
		}
		for _, fl := range flows {
			if !fl.active {
				continue
			}
			// Max-min: each flow must traverse a saturated link.
			srcSat := egress[fl.src] >= 100e6*(1-1e-6)
			dstSat := ingress[fl.dst] >= 100e6*(1-1e-6)
			if !srcSat && !dstSat {
				t.Fatalf("seed %d: flow %d→%d at %v has no saturated link", seed, fl.src, fl.dst, fl.rate)
			}
		}
		eng.Run()
	}
	for seed := int64(0); seed < 30; seed++ {
		check(seed)
	}
}

// deterministicRand is a tiny LCG so the property test needs no imports.
type deterministicRand struct{ state uint64 }

func newDeterministicRand(seed int64) *deterministicRand {
	return &deterministicRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *deterministicRand) next() int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int(r.state >> 33 & 0x7fffffff)
}

// TestRecycledFlowIsReset: a completed flow's struct goes back to the pool
// and the next Transfer reuses it, so every field must be reset first —
// stale state from the previous flow must not leak into the new one.
func TestRecycledFlowIsReset(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 3, 100e6)
	first := f.Transfer(0, 1, 100e6, func() {})
	eng.Run()
	if len(f.pool) != 1 || f.pool[0] != first {
		t.Fatalf("completed flow was not recycled: pool %v", f.pool)
	}
	// Dirty every field the previous flow could have left behind.
	*first = Flow{src: 2, dst: 2, remaining: 7, total: 9, rate: 5, done: func() { t.Error("stale callback ran") }, seq: 99, active: true, inComp: true}

	fired := false
	second := f.Transfer(1, 2, 50e6, func() { fired = true })
	if second != first {
		t.Fatal("Transfer did not reuse the pooled struct")
	}
	if second.src != 1 || second.dst != 2 || second.remaining != 50e6 || second.total != 50e6 {
		t.Fatalf("reused flow kept stale endpoints or sizes: %+v", *second)
	}
	if second.rate != 100e6 || second.seq != 2 || !second.active || second.inComp {
		t.Fatalf("reused flow kept stale rate or state: %+v", *second)
	}
	eng.Run()
	if !fired {
		t.Fatal("reused flow never completed with its own callback")
	}
}
