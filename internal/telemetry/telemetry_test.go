package telemetry_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
)

// sortRun executes a small monotasks sort with a sampler attached and returns
// the cluster, the sampler, and the jobs' metrics.
func sortRun(t *testing.T, cfg telemetry.Config) (*cluster.Cluster, *telemetry.Sampler, []*task.JobMetrics) {
	t.Helper()
	c := cluster.MustNew(4, cluster.M2_4XLarge())
	env := workloads.MustEnv(c)
	job, err := workloads.Sort{TotalBytes: 4 * units.GB, ValuesPerKey: 10}.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	var s *telemetry.Sampler
	ms, err := run.JobsContext(context.Background(), c, env.FS, run.Options{
		Mode:        run.Monotasks,
		Telemetry:   &cfg,
		OnTelemetry: func(got *telemetry.Sampler) { s = got },
	}, job)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("OnTelemetry never called")
	}
	return c, s, ms
}

func TestSamplerCapturesLiveRun(t *testing.T) {
	c, s, ms := sortRun(t, telemetry.Config{Interval: 1})
	snaps := s.Snapshots()
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots for a multi-second run", len(snaps))
	}
	// Windows tile exactly and seq counts from 1.
	for i, sn := range snaps {
		if sn.Seq != i+1 {
			t.Fatalf("snapshot %d has seq %d", i, sn.Seq)
		}
		if i > 0 && sn.T0 != snaps[i-1].T1 {
			t.Fatalf("windows do not tile: snap %d starts at %v, previous ended %v",
				i, sn.T0, snaps[i-1].T1)
		}
		if len(sn.Machines) != c.Size() {
			t.Fatalf("snapshot %d covers %d machines, want %d", i, len(sn.Machines), c.Size())
		}
	}
	if snaps[0].T0 != 0 {
		t.Fatalf("first window starts at %v, want 0", snaps[0].T0)
	}
	// Mid-run snapshots see the sort actually running: live tasks, busy
	// devices, the default pool active.
	mid := snaps[len(snaps)/2]
	if len(mid.Jobs) != 1 || mid.Jobs[0].Name != ms[0].Name {
		t.Fatalf("mid-run jobs = %+v", mid.Jobs)
	}
	if mid.Jobs[0].Done || mid.Jobs[0].LiveTasks == 0 {
		t.Fatalf("mid-run job state %+v, want running with live tasks", mid.Jobs[0])
	}
	if len(mid.Pools) == 0 || mid.Pools[0].Name != "default" || mid.Pools[0].Active != 1 {
		t.Fatalf("mid-run pools = %+v", mid.Pools)
	}
	var busy bool
	for _, m := range mid.Machines {
		if m.CPU > 0 || m.Disk > 0 || m.Net > 0 {
			busy = true
		}
	}
	if !busy {
		t.Fatal("mid-run snapshot shows an idle cluster")
	}
	if mid.Stage.Bottleneck == "" {
		t.Fatal("mid-run snapshot has no bottleneck ranking")
	}

	// The last snapshot is the final one: engine drained, job done, and its
	// cumulative attribution equals the post-hoc call over the same window —
	// live clarity costs no accuracy.
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Fatalf("last snapshot not final: %+v", last)
	}
	if !last.Jobs[0].Done {
		t.Fatalf("final snapshot job not done: %+v", last.Jobs[0])
	}
	posthoc := model.Attribute(ms, 0, last.T1, model.ClusterResources(c))
	if len(last.Cumulative) != len(posthoc) {
		t.Fatalf("cumulative has %d jobs, post-hoc %d", len(last.Cumulative), len(posthoc))
	}
	for i, a := range posthoc {
		g := last.Cumulative[i]
		if g.Usage != a.Usage {
			t.Fatalf("job %d live usage %+v != post-hoc %+v", i, g.Usage, a.Usage)
		}
		if g.CPUShare != a.CPUShare || g.DiskShare != a.DiskShare || g.NetShare != a.NetShare ||
			g.IdealCPU != a.IdealCPU || g.IdealDisk != a.IdealDisk || g.IdealNet != a.IdealNet {
			t.Fatalf("job %d live attribution %+v != post-hoc %+v", i, g, a)
		}
	}
	if got, ok := s.Latest(); !ok || got.Seq != last.Seq {
		t.Fatalf("Latest() = %+v, %v", got, ok)
	}
}

func TestSamplerStreamIsDeterministic(t *testing.T) {
	stream := func() []byte {
		var buf bytes.Buffer
		st := telemetry.NewStreamer(&buf)
		_, s, _ := sortRun(t, telemetry.Config{Interval: 1, OnSnapshot: st.Observe})
		if st.Err() != nil {
			t.Fatal(st.Err())
		}
		// The streamed bytes must agree with serializing the ring after the
		// fact (nothing evicted at default ring size).
		var ring bytes.Buffer
		if err := telemetry.WriteJSONL(&ring, s.Snapshots()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), ring.Bytes()) {
			t.Fatal("streamed bytes differ from ring serialization")
		}
		return buf.Bytes()
	}
	a, b := stream(), stream()
	if !bytes.Equal(a, b) {
		t.Fatal("telemetry streams differ between identical runs")
	}
	if len(a) == 0 {
		t.Fatal("empty telemetry stream")
	}
}

func TestRingEvictsOldest(t *testing.T) {
	_, s, _ := sortRun(t, telemetry.Config{Interval: 0.5, RingSize: 4})
	snaps := s.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("ring holds %d snapshots, want 4", len(snaps))
	}
	// Oldest evicted: retained seqs are the last four, in order, ending with
	// the final snapshot.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Seq != snaps[i-1].Seq+1 {
			t.Fatalf("ring seqs not contiguous: %d then %d", snaps[i-1].Seq, snaps[i].Seq)
		}
	}
	if !snaps[3].Final || snaps[0].Seq == 1 {
		t.Fatalf("ring retained wrong end of the stream: seqs %d..%d, final=%v",
			snaps[0].Seq, snaps[3].Seq, snaps[3].Final)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	_, s, _ := sortRun(t, telemetry.Config{Interval: 2})
	want := s.Snapshots()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed snapshots:\ngot  %+v\nwant %+v", got[0], want[0])
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := telemetry.ReadJSONL(strings.NewReader("{\"seq\":1}\nnot json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	snaps, err := telemetry.ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(snaps) != 0 {
		t.Fatalf("blank stream: %v, %v", snaps, err)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("disk full")
}

func TestStreamerErrorIsSticky(t *testing.T) {
	fw := &failWriter{}
	st := telemetry.NewStreamer(fw)
	st.Observe(&telemetry.Snapshot{Seq: 1})
	st.Observe(&telemetry.Snapshot{Seq: 2})
	if st.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if fw.n != 1 {
		t.Fatalf("streamer kept writing after error: %d writes", fw.n)
	}
}

func TestRender(t *testing.T) {
	_, s, ms := sortRun(t, telemetry.Config{Interval: 1})
	last, _ := s.Latest()
	out := telemetry.Render(&last)
	for _, want := range []string{"monotop", "MACHINE", "m0", "POOL", "default", "JOB", ms[0].Name, "[final]", "bottleneck:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Rendering twice is stable.
	if out != telemetry.Render(&last) {
		t.Fatal("render not deterministic")
	}
	// A machine lacking a resource renders as absent, not 0%.
	abs := telemetry.Snapshot{Machines: []telemetry.MachineUtil{{Machine: 0, CPU: 0.5, Disk: -1, Net: -1}}}
	if r := telemetry.Render(&abs); !strings.Contains(r, "-") {
		t.Fatalf("absent resource not rendered: %s", r)
	}
}

func TestSamplerBindResumesAcrossDrains(t *testing.T) {
	// A long-lived session runs several actions on one engine; Bind must
	// re-arm the ticker after each drain so one ring spans the session.
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	env := workloads.MustEnv(c)
	s := telemetry.Start(c, nil, telemetry.Config{Interval: 1})
	job, err := workloads.Sort{TotalBytes: 1 * units.GB, ValuesPerKey: 10}.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d, err := run.Driver(c, env.FS, run.Options{Mode: run.Monotasks})
		if err != nil {
			t.Fatal(err)
		}
		s.Bind(d)
		if _, err := d.Submit(job); err != nil {
			t.Fatal(err)
		}
		d.Run()
	}
	s.Stop()
	snaps := s.Snapshots()
	finals := 0
	for _, sn := range snaps {
		if sn.Final {
			finals++
		}
	}
	if finals < 2 {
		t.Fatalf("%d final snapshots across 2 actions, want ≥ 2", finals)
	}
	// The clock never rewinds across binds and windows still tile.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].T0 != snaps[i-1].T1 {
			t.Fatalf("windows do not tile across binds: %v then %v", snaps[i-1].T1, snaps[i].T0)
		}
	}
}
