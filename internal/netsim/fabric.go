// Package netsim models the cluster network as a full-bisection fabric of
// per-machine full-duplex NICs. Flows between machines receive max-min fair
// rates computed by water-filling over the sender-egress and receiver-ingress
// links; rates are recomputed whenever a flow starts or finishes.
//
// This is the fluid-flow analogue of the transport behaviour the paper's
// network monotasks see: a machine fetching shuffle data from many senders is
// limited by its own ingress link, and a sender serving many receivers
// divides its egress link among them (§3.3, "Network scheduler").
package netsim

import (
	"math"
	"math/bits"

	"repro/internal/resource"
	"repro/internal/sim"
)

// NIC is one machine's network interface: independent egress and ingress
// capacities in bytes/second (full duplex).
type NIC struct {
	id        int
	egressBW  float64
	ingressBW float64
	// base capacities, so dynamic degradation factors compose from the
	// configured rates rather than compounding.
	baseEgressBW  float64
	baseIngressBW float64

	// UtilOut tracks the egress direction's utilization (0..1).
	UtilOut resource.Tracker
	// UtilIn tracks the ingress direction's utilization (0..1).
	UtilIn resource.Tracker
	// BytesInCum is the cumulative ingress byte timeline (charged at
	// transfer start) — the OS-counter view of this interface, from which
	// metrics.Measure counts a window's network bytes.
	BytesInCum resource.Tracker

	bytesIn int64
}

// ID returns the NIC's machine index within its fabric.
func (n *NIC) ID() int { return n.id }

// IngressBW reports the inbound link capacity in bytes/second.
func (n *NIC) IngressBW() float64 { return n.ingressBW }

// Flow is an in-flight transfer between two machines.
//
// A *Flow returned by Transfer is a handle valid only until the flow's done
// callback has run. The fabric then recycles the struct for a later
// Transfer, so a handle kept past done may describe, or Cancel, another
// flow.
type Flow struct {
	src, dst  int
	remaining float64
	total     float64
	rate      float64
	done      func()
	seq       uint64
	active    bool
	// transient component-closure mark, valid only inside rerate.
	inComp bool
	// round is the water-filling round the last solve froze the flow in;
	// never until a solve has.
	round int32
}

// never is the round of a flow no solve has frozen yet and the first
// candidate round of a link that was never a candidate.
const never = math.MaxInt32

// Remaining reports the bytes left to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate reports the flow's current max-min fair rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Fabric connects n NICs with full bisection bandwidth: the only contention
// points are the NICs themselves.
type Fabric struct {
	eng        *sim.Engine
	nics       []*NIC
	order      []*Flow // active flows in deterministic (insertion) order
	pool       []*Flow // retired Flow structs recycled by Transfer
	nextSeq    uint64
	lastUpdate sim.Time
	completion sim.EventRef
	completeFn func() // f.complete, bound once so rerates never allocate

	// Scratch state reused across rerate calls so the hot path stays off the
	// allocator. Links are numbered 0..2n-1: machine i's egress link is i, its
	// ingress link is n+i.
	linkCap   []float64 // residual capacity per link during water-filling
	linkCnt   []int     // unfrozen flows per link during water-filling
	linkShare []float64 // linkCap/linkCnt at the start of a water-filling round
	linkMark  []uint64  // epoch marks: linkMark[l] == markEpoch ⇒ l is in the component
	markEpoch uint64
	compLinks []int   // links in the current component, in discovery order
	compFlows []*Flow // flows in the current component, in f.order order
	finished  []*Flow // reusable scratch for complete()

	// Water-filling scratch, indexed by a flow's position in compFlows.
	flowSrc    []int32  // egress link
	flowDst    []int32  // ingress link
	flowFrozen []bool   // rate fixed in an earlier round or earlier this round
	visit      []uint64 // bitset: flows still to test this round
	// Per-link lists of component-flow indices, ascending: link l's list is
	// linkFlows[linkOff[l]:linkEnd[l]]. Frozen entries are dropped lazily.
	linkOff   []int
	linkEnd   []int
	linkFlows []int32
	linkCand  []uint64 // linkCand[l] == candEpoch ⇒ l is a candidate this round
	candEpoch uint64
	liveLinks []int // component links that still carry unfrozen flows

	// The checkpoint: the rounds of the last solve whose component held
	// every active flow on at least half the links, which a later start,
	// finish or cancel resumes (see rerateTouched). Rows hold one entry per
	// link: row r of ckCap is ckCap[r*2n : (r+1)*2n], the state at the start
	// of round r, and row ckRounds the state after the last round.
	ckRounds  int       // rounds in the checkpoint; -1 when there is none
	ckShare   []float64 // each round's bottleneck share
	ckLimit   []float64 // each round's candidate limit
	ckCap     []float64 // each link's residual capacity, per row
	ckCnt     []int     // each link's unfrozen flow count, per row
	firstCand []int     // the first round each link was a candidate in, or never

	stats solveStats
}

// solveStats counts water-filling work, for tests and benchmarks.
type solveStats struct {
	solves  int // rerates
	resumed int // solves resumed from a checkpoint round above 0
	rounds  int // water-filling rounds run
}

// NewFabric creates a fabric of n NICs, each with the given full-duplex
// bandwidth in bytes/second.
func NewFabric(eng *sim.Engine, n int, linkBW float64) *Fabric {
	bws := make([]float64, n)
	for i := range bws {
		bws[i] = linkBW
	}
	return NewFabricBW(eng, bws)
}

// NewFabricBW creates a fabric with per-machine link bandwidths — the
// heterogeneity knob (a machine with a degraded NIC slows every flow it
// terminates).
func NewFabricBW(eng *sim.Engine, linkBWs []float64) *Fabric {
	if len(linkBWs) == 0 {
		panic("netsim: fabric needs machines")
	}
	f := &Fabric{eng: eng, ckRounds: -1}
	f.completeFn = f.complete
	for i, bw := range linkBWs {
		if bw <= 0 {
			panic("netsim: fabric needs positive bandwidth")
		}
		f.nics = append(f.nics, &NIC{id: i, egressBW: bw, ingressBW: bw, baseEgressBW: bw, baseIngressBW: bw})
	}
	n := len(linkBWs)
	f.linkCap = make([]float64, 2*n)
	f.linkCnt = make([]int, 2*n)
	f.linkMark = make([]uint64, 2*n)
	f.linkShare = make([]float64, 2*n)
	f.linkOff = make([]int, 2*n)
	f.linkEnd = make([]int, 2*n)
	f.linkCand = make([]uint64, 2*n)
	f.firstCand = make([]int, 2*n)
	return f
}

// NIC returns machine i's interface.
func (f *Fabric) NIC(i int) *NIC { return f.nics[i] }

// Size reports the number of machines.
func (f *Fabric) Size() int { return len(f.nics) }

// Transfer starts a flow of the given size from machine src to machine dst;
// done fires when the last byte arrives. Local transfers (src == dst) are
// free: data never leaves the machine, so done fires on the next dispatch.
//
// The returned handle is valid only until done runs: once it has, the
// struct returns to the fabric's pool and a later Transfer reuses it.
func (f *Fabric) Transfer(src, dst int, bytes int64, done func()) *Flow {
	if src < 0 || src >= len(f.nics) || dst < 0 || dst >= len(f.nics) {
		panic("netsim: transfer endpoint out of range")
	}
	f.nextSeq++
	if src == dst || bytes <= 0 {
		// Degenerate transfers never enter the fabric, so the caller-held
		// struct is never recycled (a pool slot would alias a future flow).
		f.eng.After(0, done)
		return &Flow{src: src, dst: dst, remaining: float64(bytes), total: float64(bytes), done: done, seq: f.nextSeq}
	}
	var fl *Flow
	if n := len(f.pool); n > 0 {
		fl = f.pool[n-1]
		f.pool[n-1] = nil
		f.pool = f.pool[:n-1]
		*fl = Flow{}
	} else {
		fl = &Flow{}
	}
	fl.src, fl.dst = src, dst
	fl.remaining, fl.total = float64(bytes), float64(bytes)
	fl.done = done
	fl.seq = f.nextSeq
	fl.round = never
	f.advance()
	fl.active = true
	f.order = append(f.order, fl)
	nic := f.nics[fl.dst]
	nic.bytesIn += bytes
	nic.BytesInCum.Set(f.eng.Now(), float64(nic.bytesIn))
	f.beginRerate()
	f.touchFlow(fl)
	f.rerateTouched(fl)
	return fl
}

// SetLinkSpeed rescales machine i's NIC to factor times its configured
// full-duplex bandwidth from the current virtual time onward (1 restores
// it). In-flight flows are drained at the old rates first, then every flow's
// max-min fair share is recomputed — the dynamic NIC-degradation knob.
func (f *Fabric) SetLinkSpeed(i int, factor float64) {
	if i < 0 || i >= len(f.nics) {
		panic("netsim: SetLinkSpeed machine out of range")
	}
	if factor <= 0 {
		panic("netsim: link speed factor must be positive")
	}
	f.advance()
	n := f.nics[i]
	n.egressBW = n.baseEgressBW * factor
	n.ingressBW = n.baseIngressBW * factor
	f.beginRerate()
	f.touchLink(i)
	f.touchLink(len(f.nics) + i)
	f.rerateTouched()
}

// Cancel abandons an in-flight flow. fl must be a handle whose done has not
// run: after done, Transfer may have reused the struct for another flow,
// which Cancel would then abandon instead.
func (f *Fabric) Cancel(fl *Flow) {
	if !fl.active {
		return
	}
	f.advance()
	fl.active = false
	f.compactOrder()
	f.beginRerate()
	f.touchFlow(fl)
	f.rerateTouched(fl)
}

// ActiveFlows reports the number of in-flight flows.
func (f *Fabric) ActiveFlows() int { return len(f.order) }

// advance drains each flow by rate·dt.
func (f *Fabric) advance() {
	now := f.eng.Now()
	dt := float64(now - f.lastUpdate)
	f.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, fl := range f.order {
		fl.remaining -= fl.rate * dt
		// Clamp float residue relative to the flow's size: rate changes on
		// every membership change, and the subtraction errors accumulate
		// with the byte count. An absolute epsilon eventually leaves a
		// residue whose drain time underflows the clock's resolution,
		// rescheduling a zero-length completion event forever.
		if fl.remaining < 1e-9*fl.total+1e-9 {
			fl.remaining = 0
		}
	}
}

// beginRerate opens a new rerate scope: links touched with touchLink or
// touchFlow before the next rerateTouched seed the connected component whose
// flow rates must be re-solved.
func (f *Fabric) beginRerate() {
	f.markEpoch++
	f.compLinks = f.compLinks[:0]
}

// touchLink marks link l (machine i egress = i, ingress = n+i) as changed.
func (f *Fabric) touchLink(l int) {
	if f.linkMark[l] != f.markEpoch {
		f.linkMark[l] = f.markEpoch
		f.compLinks = append(f.compLinks, l)
	}
}

// touchFlow marks both links a flow traverses as changed.
func (f *Fabric) touchFlow(fl *Flow) {
	f.touchLink(fl.src)
	f.touchLink(len(f.nics) + fl.dst)
}

// rerateTouched recomputes max-min fair rates by water-filling, restricted to
// the connected component(s) of the links touched since beginRerate, then
// updates the affected NICs' utilization trackers and reschedules the next
// completion event. changed names the change: the flow that just started,
// the flows that just finished or were cancelled (no longer active), or none
// for a link-speed change.
//
// The restriction is exact, not approximate: max-min fairness decomposes over
// connected components of the bipartite flow/link graph, because water-filling
// in one component never changes residual capacity in another. A membership
// or capacity change therefore only perturbs rates of flows reachable from
// the changed links, and those are exactly the flows this solves for. Rates
// of all other flows are left untouched, which is what makes a rerate cheap
// when the fabric carries many unrelated transfers.
//
// Within the component, each water-filling round costs O(links + flows on
// bottleneck links), not O(component flows): a link above the bottleneck
// share at round start only rises further above it as flows freeze, since
// (cap-share)/(cnt-1) > cap/cnt whenever share < cap/cnt, so no flow off the
// bottleneck links can freeze that round. waterFill gives the details and
// why the restriction leaves every rate bit-identical to a full scan.
//
// A solve whose component holds every active flow, on at least half the
// fabric's links, keeps its rounds as the checkpoint: each flow's freeze
// round, each round's share and limit, each link's capacity and unfrozen
// count at the start of each round, and each link's first candidate round.
// The next start, finish or cancel whose component again holds every flow
// on that many links restores the first round k the change can reach and
// runs waterFill from there over only the flows that froze in round k or
// later, keeping every other flow's rate. Every round before k runs the same
// floating-point operations with or without the change, so each rate keeps
// the bits a full solve would give it:
//
//   - Finishes and cancels resume at the first round any removed flow's link
//     was a candidate in. Before it, none of those links was a candidate:
//     each stayed above the limit at round start and after every freeze on
//     it. Removing flows only raises their links' shares, and the rounded
//     c/(n-1) is at least the rounded c/n, so they stay above it and every
//     earlier round picks the same share, candidates, freezes and
//     promotions. A removed flow's own freeze round is not a safe k: a
//     candidate link can lose its candidacy mid-round, when its evolving
//     share climbs past the limit, and its last flows then freeze in a later
//     round than the one that first tested them.
//   - A start resumes at the first round in which either of the new flow's
//     links, carrying one more unfrozen flow, would be a candidate
//     (startRound). Until then the new flow is never tested and its links
//     decide no freeze. If no round qualifies, the new flow freezes alone in
//     one new round after the last.
//
// The checkpoint's rows before k gain or lose the changed flows in their
// links' counts; the resumed solve rewrites the rest. A link-speed change and
// a solve without a checkpoint fall back to the full solve. So does a
// component that leaves a flow out, which also drops the checkpoint: a joint
// solve and separate solves of two components can differ in the last bits
// when their shares tie within the limit, so after a partial solve no rounds
// describe the current rates. That is also why every rerate keeps the
// closure pass: a start after a removal can reach only part of the flows one
// full solve covered. A component on fewer than half the fabric's links is
// solved over its own links and drops the checkpoint too: the checkpoint's
// rows span every link, and with a few flows on a large fabric writing them
// costs more than the rounds a resume saves.
func (f *Fabric) rerateTouched(changed ...*Flow) {
	n := len(f.nics)
	// Close the component: any flow on a marked link joins, and brings its
	// other link with it. Pass-based to fixpoint, stopping as soon as every
	// flow has joined, as it usually has in an all-to-all shuffle; the
	// collection gathers component flows in f.order order, preserving the
	// deterministic freeze order of the unrestricted algorithm.
	members := 0
	for grew := true; grew && members < len(f.order); {
		grew = false
		for _, fl := range f.order {
			if fl.inComp || f.linkMark[fl.src] != f.markEpoch && f.linkMark[n+fl.dst] != f.markEpoch {
				continue
			}
			fl.inComp = true
			f.touchLink(fl.src)
			f.touchLink(n + fl.dst)
			grew = true
			if members++; members == len(f.order) {
				break
			}
		}
	}
	// Pick the flows to solve and the round to solve them from; from < 0
	// solves over the component's links alone and keeps no checkpoint.
	from := -1
	f.compFlows = f.compFlows[:0]
	switch {
	case members < len(f.order) || 2*len(f.compLinks) < len(f.linkCap):
		for _, fl := range f.order {
			if fl.inComp {
				f.compFlows = append(f.compFlows, fl)
			}
		}
		f.ckRounds = -1
	case len(changed) == 0 || f.ckRounds < 0:
		from = 0
		f.compFlows = append(f.compFlows, f.order...)
	default:
		from = f.resumeRound(changed)
		delta := -1
		if changed[0].active {
			delta = 1
		}
		links := len(f.linkCap)
		for _, fl := range changed {
			for r := 0; r < from; r++ {
				f.ckCnt[r*links+fl.src] += delta
				f.ckCnt[r*links+n+fl.dst] += delta
			}
		}
		for _, fl := range f.order {
			if int(fl.round) >= from {
				f.compFlows = append(f.compFlows, fl)
			}
		}
	}
	f.stats.solves++
	if from > 0 {
		f.stats.resumed++
	}

	f.waterFill(from)

	// Utilization changed only on component links; every flow on such a link
	// is in the component, so summing component flows is the full picture.
	// The sums run in the completion scan below, over the component flows in
	// f.order order, however many of them the solve re-ran.
	for _, l := range f.compLinks {
		f.linkCap[l] = 0 // reuse as the per-link utilization accumulator
	}
	// Next completion: rates outside the component are unchanged, but the
	// soonest finisher can be anywhere, so scan all flows (cheap: no allocs).
	soonest := sim.Time(math.MaxFloat64)
	for _, fl := range f.order {
		if fl.inComp {
			f.linkCap[fl.src] += fl.rate
			f.linkCap[n+fl.dst] += fl.rate
			fl.inComp = false
		}
		if fl.rate <= 0 {
			continue
		}
		t := sim.Duration(fl.remaining / fl.rate)
		if t < soonest {
			soonest = t
		}
	}
	now := f.eng.Now()
	for _, l := range f.compLinks {
		if l < n {
			nic := f.nics[l]
			nic.UtilOut.Set(now, f.linkCap[l]/nic.egressBW)
		} else {
			nic := f.nics[l-n]
			nic.UtilIn.Set(now, f.linkCap[l]/nic.ingressBW)
		}
	}
	f.eng.Cancel(f.completion)
	f.completion = sim.EventRef{}
	if soonest < sim.Time(math.MaxFloat64) {
		f.completion = f.eng.After(soonest, f.completeFn)
	}
}

// resumeRound returns the first checkpoint round the change can reach: for a
// start, startRound's; for finishes and cancels, the first round any of the
// removed flows' links was a candidate in.
func (f *Fabric) resumeRound(changed []*Flow) int {
	n := len(f.nics)
	if changed[0].active {
		return f.startRound(changed[0].src, n+changed[0].dst)
	}
	k := f.ckRounds
	for _, fl := range changed {
		k = min(k, f.firstCand[fl.src], f.firstCand[n+fl.dst])
	}
	return k
}

// startRound returns the first checkpoint round a flow starting on links s
// and d can change: the first in which either link, carrying one more
// unfrozen flow, would be a candidate. That is a round in which the link
// already was one, or one in which joinsRound finds it would become one. If
// no round qualifies, it returns the round count.
func (f *Fabric) startRound(s, d int) int {
	end := min(f.ckRounds, f.firstCand[s], f.firstCand[d])
	for r := 0; r < end; r++ {
		if f.joinsRound(r, s) || f.joinsRound(r, d) {
			return r
		}
	}
	return end
}

// joinsRound reports whether link l, not a candidate in checkpoint round r,
// would become one there with one more unfrozen flow: at or below the round's
// limit at its start, which covers setting a lower share, or promoted after
// one of the round's freezes on it. The freezes are replayed from row r, each
// subtracting the round's share, with waterFill's own promotion test; their
// number is the drop in the link's count from row r to row r+1.
func (f *Fabric) joinsRound(r, l int) bool {
	links := len(f.linkCap)
	c, k := f.ckCap[r*links+l], f.ckCnt[r*links+l]
	share, limit := f.ckShare[r], f.ckLimit[r]
	if shareAtMost(c, k+1, limit) {
		return true
	}
	for ; k > f.ckCnt[(r+1)*links+l]; k-- {
		c -= share
		// k-1 flows of the checkpoint remain unfrozen, plus the new one.
		if shareAtMost(c, k, limit) {
			return true
		}
	}
	return false
}

// waterFill assigns max-min fair rates to f.compFlows over f.compLinks,
// running rounds from round from on. A full solve starts at round 0 and a
// resumed one at its resume round; both write the checkpoint. A solve over
// the component's links alone passes a negative from and writes none.
//
// Each round finds the bottleneck share — the smallest cap/cnt over the
// component's links — and walks the unfrozen flows in compFlows order,
// freezing a flow at that share when either of its links' evolving share
// (cap/cnt after the freezes earlier in the walk) is within 1e-12 of it.
// The walk visits only flows on candidate links, those whose evolving share
// is at or below that limit, so a round costs O(links + flows on candidate
// links) instead of O(component flows).
//
// Skipping the other flows is exact, not approximate. A flow is tested only
// against its two links' evolving shares, and a link's share changes only
// when a flow on it freezes. Candidates are chosen at round start and
// re-checked after every freeze, so a link joins the candidate set the
// moment its share reaches the limit, and its unfrozen flows later in
// compFlows order join the walk. Every flow the full scan would freeze is
// therefore visited, at the same point in the same order, and every
// capacity, share and rate is computed by the same floating-point
// operations. The same invariant lets the walk test a link's share only
// when the link is a candidate. In exact arithmetic a link above the limit
// only rises as flows on it freeze, so the re-check can promote a link
// mid-round only if rounding moves its share down by its last few ulps;
// checking anyway keeps exactness from resting on how far rounding can go.
func (f *Fabric) waterFill(from int) {
	n := len(f.nics)
	m := len(f.compFlows)
	f.flowSrc, f.flowDst = grow(f.flowSrc, m), grow(f.flowDst, m)
	f.flowFrozen = grow(f.flowFrozen, m)
	f.linkFlows = grow(f.linkFlows, 2*m)
	f.visit = grow(f.visit, (m+63)/64)
	src, dst, frozen, visit := f.flowSrc, f.flowDst, f.flowFrozen, f.visit
	capacity, count, cand := f.linkCap, f.linkCnt, f.linkCand

	// Residual capacity per link; links are (machine, direction). A solve
	// that writes the checkpoint sets every link, since its rows cover all.
	switch {
	case from > 0:
		copy(capacity, f.ckCap[from*len(capacity):])
	case from == 0:
		for l := range capacity {
			capacity[l] = f.linkBW(l)
		}
	default:
		for _, l := range f.compLinks {
			capacity[l] = f.linkBW(l)
			count[l] = 0
		}
	}
	if from >= 0 {
		clear(count)
		for l, r := range f.firstCand {
			if r >= from {
				f.firstCand[l] = never
			}
		}
	}
	for i, fl := range f.compFlows {
		src[i], dst[i], frozen[i] = int32(fl.src), int32(n+fl.dst), false
		count[fl.src]++
		count[n+fl.dst]++
	}
	off := 0
	for _, l := range f.compLinks {
		f.linkOff[l], f.linkEnd[l] = off, off
		off += count[l]
	}
	for i := range src {
		f.linkFlows[f.linkEnd[src[i]]] = int32(i)
		f.linkEnd[src[i]]++
		f.linkFlows[f.linkEnd[dst[i]]] = int32(i)
		f.linkEnd[dst[i]]++
	}

	checkpoint := from >= 0
	links := f.compLinks
	round := max(from, 0)
	for unfrozen := m; unfrozen > 0; round++ {
		if checkpoint {
			f.saveRow(round)
		}
		// Find the bottleneck link: smallest fair share. Links whose flows
		// have all frozen drop out for the rest of the rerate.
		share := math.MaxFloat64
		live := f.liveLinks[:0]
		for _, l := range links {
			if count[l] == 0 {
				continue
			}
			live = append(live, l)
			s := capacity[l] / float64(count[l])
			f.linkShare[l] = s
			if s < share {
				share = s
			}
		}
		f.liveLinks, links = live, live
		// The candidates: links within 1e-12 of the bottleneck share.
		limit := share * (1 + 1e-12)
		if checkpoint {
			f.ckShare = append(f.ckShare[:round], share)
			f.ckLimit = append(f.ckLimit[:round], limit)
		}
		f.candEpoch++
		epoch := f.candEpoch
		for _, l := range live {
			if f.linkShare[l] <= limit {
				f.queue(l, -1, round)
			}
		}
		// Freeze every visited flow traversing a link at that share.
		progress := false
		for w := range visit {
			for visit[w] != 0 {
				i := w<<6 | bits.TrailingZeros64(visit[w])
				visit[w] &= visit[w] - 1
				s, d := src[i], dst[i]
				if cand[s] == epoch && shareAtMost(capacity[s], count[s], limit) ||
					cand[d] == epoch && shareAtMost(capacity[d], count[d], limit) {
					fl := f.compFlows[i]
					fl.rate, fl.round = share, int32(round)
					frozen[i] = true
					unfrozen--
					progress = true
					capacity[s] -= share
					capacity[d] -= share
					count[s]--
					count[d]--
					if cand[s] != epoch && count[s] > 0 && shareAtMost(capacity[s], count[s], limit) {
						f.queue(int(s), i, round)
					}
					if cand[d] != epoch && count[d] > 0 && shareAtMost(capacity[d], count[d], limit) {
						f.queue(int(d), i, round)
					}
				}
			}
		}
		if !progress {
			panic("netsim: water-filling failed to make progress")
		}
	}
	if checkpoint {
		f.saveRow(round)
		f.ckRounds = round
	}
	f.stats.rounds += round - max(from, 0)
}

// linkBW reports link l's configured capacity.
func (f *Fabric) linkBW(l int) float64 {
	if n := len(f.nics); l >= n {
		return f.nics[l-n].ingressBW
	}
	return f.nics[l].egressBW
}

// saveRow writes every link's residual capacity and unfrozen count into
// checkpoint row r, keeping the rows before it.
func (f *Fabric) saveRow(r int) {
	links := len(f.linkCap)
	f.ckCap = append(f.ckCap[:r*links], f.linkCap...)
	f.ckCnt = append(f.ckCnt[:r*links], f.linkCnt...)
}

// shareAtMost reports whether a link's evolving fair share, the rounded
// quotient c/k of its residual capacity and unfrozen flow count, is at or
// below limit. k must be positive.
//
// The answer is the division's, but the division runs only when the
// quotient lies within about 1e-14 of limit. Elsewhere one product decides:
// with p = limit·k rounded, c ≤ p·(1−1e-14) puts the exact quotient below
// limit, so its rounding cannot exceed limit, and c ≥ p·(1+1e-14) puts it
// more than one ulp above limit, so its rounding stays above. Each product
// is off by at most a few 2^-53, far inside the 1e-14 margin. A freeze then
// costs a subtraction and a decrement per link instead of a division, whose
// latency would otherwise chain one freeze test to the next.
func shareAtMost(c float64, k int, limit float64) bool {
	p := limit * float64(k)
	if c <= p*(1-1e-14) {
		return true
	}
	if c >= p*(1+1e-14) {
		return false
	}
	return c/float64(k) <= limit
}

// queue makes link l a candidate in round, recording the round if it is the
// link's first, and queues its unfrozen flows with compFlows index above
// after, dropping the list's frozen entries.
func (f *Fabric) queue(l, after, round int) {
	f.linkCand[l] = f.candEpoch
	f.firstCand[l] = min(f.firstCand[l], round)
	kept := f.linkOff[l]
	for _, i := range f.linkFlows[f.linkOff[l]:f.linkEnd[l]] {
		if f.flowFrozen[i] {
			continue
		}
		f.linkFlows[kept] = i
		kept++
		if int(i) > after {
			f.visit[i>>6] |= 1 << (i & 63)
		}
	}
	f.linkEnd[l] = kept
}

// grow returns s resliced to length n, reallocating with headroom when it is
// too short so a fabric's scratch settles after a few rerates.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n, 2*n)
	}
	return s[:n]
}

// complete retires flows that have drained, then recomputes rates.
func (f *Fabric) complete() {
	f.completion = sim.EventRef{}
	f.advance()
	finished := f.finished[:0]
	for _, fl := range f.order {
		if fl.remaining == 0 {
			finished = append(finished, fl)
			fl.active = false
		}
	}
	if len(finished) == 0 && len(f.order) > 0 {
		// Float residue left the due flow fractionally short: retire the
		// minimum-remaining flow rather than rescheduling a drain whose
		// duration can underflow the clock's resolution (see the matching
		// guard in resource.server.complete).
		min := f.order[0]
		for _, fl := range f.order[1:] {
			if fl.rate > 0 && (min.rate <= 0 || fl.remaining/fl.rate < min.remaining/min.rate) {
				min = fl
			}
		}
		min.remaining = 0
		min.active = false
		finished = append(finished, min)
	}
	f.compactOrder()
	f.beginRerate()
	for _, fl := range finished {
		f.touchFlow(fl)
	}
	f.rerateTouched(finished...)
	// Simultaneously-finishing flows retire in Transfer order (f.order is
	// insertion-ordered): completion order drives requester-side admission
	// chains, and Transfer order is deterministic.
	for _, fl := range finished {
		fl.done()
	}
	// Recycle after the callbacks: completed flows are no longer reachable
	// from f.order, and production code never cancels a finished flow.
	for i, fl := range finished {
		fl.done = nil
		f.pool = append(f.pool, fl)
		finished[i] = nil
	}
	f.finished = finished[:0]
}

// compactOrder drops inactive flows from the deterministic iteration slice.
func (f *Fabric) compactOrder() {
	kept := f.order[:0]
	for _, fl := range f.order {
		if fl.active {
			kept = append(kept, fl)
		}
	}
	for i := len(kept); i < len(f.order); i++ {
		f.order[i] = nil
	}
	f.order = kept
}
