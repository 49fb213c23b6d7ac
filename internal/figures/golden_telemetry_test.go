package figures

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// chunkSink collects every finished run's snapshot ring as one serialized
// JSONL chunk. Sweep cells finish in arbitrary wall-clock order, so bytes
// sorts the chunks canonically — the same scheme monobench --telemetry uses
// — making the result a pure function of the experiment set.
type chunkSink struct {
	t      *testing.T
	mu     sync.Mutex
	chunks [][]byte
}

func (c *chunkSink) collect(s *telemetry.Sampler) {
	var buf bytes.Buffer
	err := telemetry.WriteJSONL(&buf, s.Snapshots())
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.t.Error(err)
		return
	}
	c.chunks = append(c.chunks, buf.Bytes())
}

func (c *chunkSink) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.chunks, func(i, j int) bool { return bytes.Compare(c.chunks[i], c.chunks[j]) < 0 })
	return bytes.Join(c.chunks, nil)
}

// telemetryStream runs the golden corpus (SortSized, both systems) plus a
// two-seed chaos matrix on the given number of sweep workers with a
// telemetry sink attached, and returns every run's snapshot stream as one
// canonical byte string.
func telemetryStream(t *testing.T, workers int) []byte {
	t.Helper()
	sink := &chunkSink{t: t}
	setup := Setup{Workers: workers, Telemetry: sink.collect}
	if _, err := SortSized(bg, setup, 16*units.GB, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Chaos(bg, setup, 2); err != nil {
		t.Fatal(err)
	}
	return sink.bytes()
}

// TestGoldenTelemetryDeterminism extends the determinism gate to the live
// telemetry bus: the full snapshot stream of the golden corpus + chaos matrix
// must be byte-identical across two runs in one process and across sweep
// --parallel 1 vs 8. Sampling rides the simulator's event queue, so any
// divergence would mean either the sampler perturbed the simulation or the
// stream depends on scheduling outside virtual time.
func TestGoldenTelemetryDeterminism(t *testing.T) {
	a := telemetryStream(t, runtime.NumCPU())
	if len(a) == 0 {
		t.Fatal("empty telemetry stream")
	}
	b := telemetryStream(t, runtime.NumCPU())
	if !bytes.Equal(a, b) {
		t.Fatalf("same-process telemetry replay differs at:\n%s", firstDiffLine(b, a))
	}

	serial := telemetryStream(t, 1)
	parallel := telemetryStream(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("telemetry stream diverged between --parallel 1 and 8 at:\n%s",
			firstDiffLine(parallel, serial))
	}
	if !bytes.Equal(a, serial) {
		t.Fatalf("telemetry stream depends on the worker count at:\n%s",
			firstDiffLine(serial, a))
	}

	// Every run's stream ends with a Final snapshot carrying the cumulative
	// whole-run attribution (the live-equals-post-hoc handoff; exact equality
	// with a post-hoc model.Attribute call is pinned in internal/telemetry's
	// tests).
	snaps, err := telemetry.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	finals := 0
	for _, s := range snaps {
		if s.Final {
			finals++
			if len(s.Jobs) > 0 && len(s.Cumulative) != len(s.Jobs) {
				t.Fatalf("final snapshot lacks cumulative attribution: %+v", s)
			}
		}
	}
	// SortSized runs two systems; Chaos(2) runs four cells.
	if finals < 6 {
		t.Fatalf("%d final snapshots across the corpus, want ≥ 6", finals)
	}
}
