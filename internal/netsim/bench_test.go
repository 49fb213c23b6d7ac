package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// benchFabric runs a transfer pattern to completion and reports per-iteration
// cost. Each iteration builds a fresh engine and fabric, so the numbers
// include setup; the interesting signal is how cost scales with the pattern.
func benchFabric(b *testing.B, machines int, transfers func(f *Fabric)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		f := NewFabric(eng, machines, 1e9)
		transfers(f)
		eng.Run()
	}
}

// BenchmarkFabricAllToAllShuffle is the worst case for rate recomputation:
// every flow shares a link with every machine's traffic, so each membership
// change re-solves one connected component containing all flows.
func BenchmarkFabricAllToAllShuffle(b *testing.B) {
	const n = 8
	benchFabric(b, n, func(f *Fabric) {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					f.Transfer(src, dst, 64<<20, func() {})
				}
			}
		}
	})
}

// BenchmarkFabricDisjointPairs is the best case for the component-restricted
// recomputation: flows between disjoint machine pairs never share a link, so
// each start or finish re-solves a single-flow component regardless of how
// many other transfers are in flight.
func BenchmarkFabricDisjointPairs(b *testing.B) {
	const n = 64
	benchFabric(b, n, func(f *Fabric) {
		for i := 0; i < n/2; i++ {
			// Unequal sizes so completions are spread out, forcing a rerate
			// per finish rather than one batched retirement.
			f.Transfer(2*i, 2*i+1, int64(16<<20)*int64(i+1), func() {})
		}
	})
}

// BenchmarkFabricSortShuffle has the shape of the §5.2 sort's shuffle at the
// paper's cluster size: 20 machines keep 512 flows of staggered sizes in
// flight, duplicate (src, dst) pairs included, and start a new flow whenever
// one finishes. Every start and finish re-solves one component holding all
// live flows, so the reported ns/rerate is the cost of that re-solve. It
// also reports the water-filling rounds run per rerate and the share of
// rerates resumed from a checkpoint round above 0: counts, not timings, so
// host noise leaves them alone and a silent fallback to full solves shows.
func BenchmarkFabricSortShuffle(b *testing.B) {
	const (
		machines = 20
		live     = 512
		total    = 4 * live // transfers per iteration
	)
	b.ReportAllocs()
	var stats solveStats
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		f := NewFabric(eng, machines, 1.25e9)
		rng := rand.New(rand.NewSource(1))
		started := 0
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
			f.Transfer(src, dst, int64(8+rng.Intn(57))<<20, start)
		}
		for started < live {
			start()
		}
		eng.Run()
		stats.solves += f.stats.solves
		stats.resumed += f.stats.resumed
		stats.rounds += f.stats.rounds
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stats.solves), "ns/rerate")
	b.ReportMetric(float64(stats.rounds)/float64(stats.solves), "rounds/rerate")
	b.ReportMetric(float64(stats.resumed)/float64(stats.solves), "resumed/rerate")
}
