package figures

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/sweep"
	"repro/internal/task"
)

// memorySweepOutput runs the scale-up data-volume sweep on the given machine
// spec and renders every cell at full float precision, so any drift in the
// memory model shows up byte-for-byte.
func memorySweepOutput(t *testing.T, setup Setup, spec cluster.MachineSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	volumes := MemoryVolumes(false)
	rows, err := sweep.Run(bg, setup.Workers, len(volumes), func(i int) (MemoryRow, error) {
		return memoryCell(bg, setup, spec, volumes[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&buf, "gb=%.0f t=%.9f cpu=%.9f disk=%.9f net=%.9f mem=%.9f bot=%v gc=%d spill=%d peak=%d err=%.9f\n",
			r.GB, r.Seconds, r.IdealCPU, r.IdealDisk, r.IdealNet, r.IdealMem,
			r.Bottleneck, r.GCPauses, r.SpillBytes, r.PeakResident, r.AttribErrPct)
	}
	return buf.Bytes()
}

// TestGoldenMemoryOnOff extends the determinism gate to the fourth resource.
// The same scale-up sweep runs with the memory model disabled (spec zeroed —
// the job degrades to pure CPU work and the memory columns stay silent) and
// enabled (bandwidth contention, GC pauses, capacity spill). Both renders are
// pinned against a committed fixture, the enabled leg must replay
// byte-identically, and the combined corpus must not depend on sweep
// parallelism. Regenerate with: go test ./internal/figures -run GoldenMemory -update
func TestGoldenMemoryOnOff(t *testing.T) {
	fat := cluster.FatNode()
	memless := fat
	memless.Mem = resource.MemorySpec{}

	off := memorySweepOutput(t, allCPUs(), memless)
	for _, line := range bytes.Split(bytes.TrimSpace(off), []byte("\n")) {
		if !bytes.Contains(line, []byte("mem=0.000000000 bot=cpu gc=0 spill=0 peak=0 err=0.000000000")) {
			t.Fatalf("memoryless sweep leaked memory-model state: %s", line)
		}
	}

	on := memorySweepOutput(t, allCPUs(), fat)
	if bytes.Equal(on, off) {
		t.Fatal("enabling the memory model changed nothing — the fourth resource is not wired in")
	}
	if on2 := memorySweepOutput(t, allCPUs(), fat); !bytes.Equal(on, on2) {
		t.Fatalf("memory-enabled sweep is not replay-identical at:\n%s", firstDiffLine(on2, on))
	}

	var combined bytes.Buffer
	combined.WriteString("== memory off ==\n")
	combined.Write(off)
	combined.WriteString("== memory on ==\n")
	combined.Write(on)

	golden := filepath.Join("testdata", "golden_memory.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, combined.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, combined.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(combined.Bytes(), want) {
		t.Fatalf("memory sweep drifted from %s at:\n%s\n(if the change is intentional, rerun with -update)",
			golden, firstDiffLine(combined.Bytes(), want))
	}
}

// TestGoldenMemorySerialVsParallel locks the memory-enabled sweep to the pool
// determinism contract: --parallel 1 and --parallel 8 must render
// byte-identical cells even though GC pauses and spill monotasks now ride the
// per-cell event queues.
func TestGoldenMemorySerialVsParallel(t *testing.T) {
	fat := cluster.FatNode()
	serial := memorySweepOutput(t, Setup{Workers: 1}, fat)
	parallel := memorySweepOutput(t, Setup{Workers: 8}, fat)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("memory sweep diverged between --parallel 1 and 8 at:\n%s",
			firstDiffLine(parallel, serial))
	}
}

// TestGoldenMemoryMigration pins the experiment's headline claim: over the
// full volume sweep on the stock fat node, the reported bottleneck starts at
// CPU and migrates to memory, and the memory-bound cells report a genuine
// (nonzero) attribution error instead of hiding the stall time.
func TestGoldenMemoryMigration(t *testing.T) {
	r, err := Memory(bg, allCPUs(), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Bottleneck != task.CPUResource {
		t.Fatalf("smallest volume bottleneck = %v, want cpu", r.Rows[0].Bottleneck)
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Bottleneck != task.MemoryResource {
		t.Fatalf("largest volume bottleneck = %v, want memory", last.Bottleneck)
	}
	if r.MigratedAt == 0 {
		t.Fatal("sweep never reported a CPU -> memory migration point")
	}
	if last.GCPauses == 0 {
		t.Fatal("largest volume fired no GC pauses")
	}
	if last.SpillBytes == 0 {
		t.Fatal("largest volume spilled nothing despite exceeding capacity")
	}
	if last.AttribErrPct <= 0 {
		t.Fatal("memory-bound cell reports zero attribution error — stall time is being hidden, not reported")
	}
}

// memoryTelemetryStream runs the smoke memory sweep with the telemetry hook
// installed and returns the canonical sorted-chunk JSONL stream.
func memoryTelemetryStream(t *testing.T) []byte {
	t.Helper()
	sink := &chunkSink{t: t}
	if _, err := Memory(bg, Setup{Workers: runtime.NumCPU(), Telemetry: sink.collect}, true); err != nil {
		t.Fatal(err)
	}
	return sink.bytes()
}

// TestGoldenMemoryTelemetry: memory-enabled runs publish the mem utilization
// column in their snapshots, bit-identically across replays, while the
// memoryless golden corpus keeps emitting streams with no mem key at all —
// the byte-compatibility contract for old monotop consumers.
func TestGoldenMemoryTelemetry(t *testing.T) {
	a := memoryTelemetryStream(t)
	if len(a) == 0 {
		t.Fatal("empty telemetry stream from memory sweep")
	}
	if !bytes.Contains(a, []byte(`"mem":`)) {
		t.Fatal("memory-enabled telemetry stream carries no mem utilization")
	}
	b := memoryTelemetryStream(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("memory telemetry replay differs at:\n%s", firstDiffLine(b, a))
	}

	memless := telemetryStream(t, runtime.NumCPU()) // golden corpus: all machines memoryless
	if bytes.Contains(memless, []byte(`"mem":`)) {
		t.Fatal("memoryless run emitted a mem key — old telemetry streams are no longer byte-stable")
	}
}
