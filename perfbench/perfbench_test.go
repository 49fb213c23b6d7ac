package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/run"
	"repro/internal/units"
)

// smallStream is a jobstream shape small enough for a unit test.
var smallStream = streamShape{machines: 4, jobs: 12, jobBytes: 2 * units.GB, maps: 64, reduces: 32, meanGap: 14, faultSegment: 6}

// smallBatches builds small instances of every batch workload's code path.
var smallBatches = map[string]func() (*batchRun, error){
	"sort-mono":  func() (*batchRun, error) { return buildSort(4, 8*units.GB, run.Monotasks) },
	"sort-spark": func() (*batchRun, error) { return buildSort(4, 8*units.GB, run.Spark) },
	"jobstream":  func() (*batchRun, error) { return buildStream(smallStream, 3) },
}

// TestBatchDigestStable runs each batch workload twice through the public
// path and once through the traced path: all three must produce the same
// digest, every job must complete, and the traced run's counters must agree
// with the outputs.
func TestBatchDigestStable(t *testing.T) {
	for name, build := range smallBatches {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for i := 0; i < 2; i++ {
				r, err := build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := runPublic(r)
				if err != nil {
					t.Fatal(err)
				}
				for j, bad := range res.failed {
					if bad {
						t.Fatalf("job %q failed", res.jobs[j].Name)
					}
				}
				digests = append(digests, batchDigest(r, res))
			}
			r, err := build()
			if err != nil {
				t.Fatal(err)
			}
			cnt := &batchCounters{launches: map[string]*launchCount{}}
			res, err := runTraced(r, cnt)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, batchDigest(r, res))
			if digests[0] != digests[1] || digests[0] != digests[2] {
				t.Fatalf("digests differ: public %s, public %s, traced %s", digests[0], digests[1], digests[2])
			}
			if cnt.events == 0 || cnt.submits != int64(len(res.jobs)) {
				t.Errorf("traced run counted %d events and %d submits for %d jobs", cnt.events, cnt.submits, len(res.jobs))
			}
			var launched int64
			for _, lc := range cnt.launches {
				launched += lc.launches
			}
			if launched < int64(res.tasks) {
				t.Errorf("%d launches for %d completed tasks", launched, res.tasks)
			}
		})
	}
}

// TestWhatifDigestStable runs one small what-if round twice on fresh
// services: the digests must match and no request may fail.
func TestWhatifDigestStable(t *testing.T) {
	var digests []string
	for i := 0; i < 2; i++ {
		wr, err := whatifOp(7, 48, i == 1)
		if err != nil {
			t.Fatal(err)
		}
		if wr.check.failed != 0 {
			t.Fatalf("round %d: %d of %d requests failed", i, wr.check.failed, len(wr.replies))
		}
		if wr.check.hits == 0 {
			t.Errorf("round %d: no memo hits", i)
		}
		digests = append(digests, wr.check.digest)
	}
	if digests[0] != digests[1] {
		t.Fatalf("digests differ: %s vs %s", digests[0], digests[1])
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b *pb) key(num, wireType int) { *b = binary.AppendUvarint(*b, uint64(num<<3|wireType)) }

func (b *pb) uint(num int, x uint64) {
	b.key(num, 0)
	*b = binary.AppendUvarint(*b, x)
}

func (b *pb) msg(num int, m pb) {
	b.key(num, 2)
	*b = binary.AppendUvarint(*b, uint64(len(m)))
	*b = append(*b, m...)
}

func (b *pb) packed(num int, xs ...uint64) {
	var m pb
	for _, x := range xs {
		m = binary.AppendUvarint(m, x)
	}
	b.msg(num, m)
}

// syntheticProfile encodes a CPU profile whose samples exercise each
// attribution rule, and returns it gzip-compressed.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",
		"repro/internal/netsim.(*Fabric).rerateTouched",
		"sort.insertionSort",
		"repro/internal/core.(*Worker).submit",
		"repro/internal/sim.(*Engine).Step",
		"main.main",
		"internal/runtime/maps.(*Map).getWithKeySmall",
	}
	var p pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.uint(1, st[0])
		m.uint(2, st[1])
		p.msg(1, m)
	}
	// Function i names string 4+i; location i holds function i, except
	// location 10, which holds core's submit inlined into sim's Step.
	for id := uint64(1); id <= 7; id++ {
		var f pb
		f.uint(1, id)
		f.uint(2, 4+id)
		p.msg(5, f)
		var loc, line pb
		loc.uint(1, id)
		line.uint(1, id)
		loc.msg(4, line)
		p.msg(4, loc)
	}
	var loc, inner, outer pb
	loc.uint(1, 10)
	inner.uint(1, 4) // core submit, inlined
	outer.uint(1, 5) // sim Step
	loc.msg(4, inner)
	loc.msg(4, outer)
	p.msg(4, loc)

	sample := func(ns uint64, locs ...uint64) {
		var s pb
		if len(locs) > 2 {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		s.packed(2, 1, ns)
		p.msg(2, s)
	}
	sample(30, 1, 2)    // runtime leaf under netsim -> runtime
	sample(7, 7, 2)     // map internals under netsim -> runtime
	sample(40, 3, 3, 2) // stdlib sort under netsim -> netsim
	sample(13, 10)      // inlined core frame inside sim -> core
	sample(10, 6)       // harness only -> unclaimed
	for _, s := range strs {
		p.key(6, 2)
		p = binary.AppendUvarint(p, uint64(len(s)))
		p = append(p, s...)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileBucketing(t *testing.T) {
	prof, err := ParseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	shares, n := prof.LayerShares()
	if n != 5 {
		t.Fatalf("decoded %d samples, want 5", n)
	}
	want := map[string]float64{"runtime": 0.37, "netsim": 0.40, "core": 0.13, unclaimedLayer: 0.10}
	for layer, w := range want {
		if math.Abs(shares[layer]-w) > 1e-9 {
			t.Errorf("%s share %v, want %v", layer, shares[layer], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares %v, want exactly %v", shares, want)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseProfile([]byte("not a profile")); err == nil {
		t.Fatal("parsed a non-gzip profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x0a, 0xff}) // field 1, length-delimited, truncated length
	zw.Close()
	if _, err := ParseProfile(gz.Bytes()); err == nil {
		t.Fatal("parsed a truncated message")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted input
		}
		return s
	}
	if _, ok := percentile(samples(199), 0.95); ok {
		t.Error("p95 of 199 samples reported; only 9 lie beyond it")
	}
	v, ok := percentile(samples(200), 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v (ok %v), want 190 with ten beyond", v, ok)
	}
	if _, ok := percentile(samples(19), 0.5); ok {
		t.Error("p50 of 19 samples reported; only 9 lie beyond it")
	}
	if got := median(samples(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}
