package main

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/run"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "regenerate testdata/fixture.jsonl")

const fixturePath = "testdata/fixture.jsonl"

// fixtureStream produces the committed fixture's snapshot stream: a small
// deterministic monotasks sort with a 2-second sampling interval.
func fixtureStream(t *testing.T) []byte {
	t.Helper()
	c := cluster.MustNew(2, cluster.M2_4XLarge())
	env := workloads.MustEnv(c)
	job, err := workloads.Sort{TotalBytes: 1 * units.GB, ValuesPerKey: 10}.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st := telemetry.NewStreamer(&buf)
	if _, err := run.JobsContext(context.Background(), c, env.FS, run.Options{
		Mode:      run.Monotasks,
		Telemetry: &telemetry.Config{Interval: 2, OnSnapshot: st.Observe},
	}, job); err != nil {
		t.Fatal(err)
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	return buf.Bytes()
}

func TestFixtureUpToDate(t *testing.T) {
	stream := fixtureStream(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, stream, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/monotop -update` to generate)", err)
	}
	if !bytes.Equal(committed, stream) {
		t.Fatalf("committed fixture differs from a fresh deterministic run (%d vs %d bytes); regenerate with -update if the telemetry format changed intentionally", len(committed), len(stream))
	}
}

func TestReplayFixture(t *testing.T) {
	f, err := os.Open(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snaps, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("fixture holds %d snapshots, want several", len(snaps))
	}
	var buf bytes.Buffer
	if err := replay(&buf, snaps, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"monotop", "MACHINE", "JOB", "bottleneck:", "[final]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replay output missing %q", want)
		}
	}
	// -last renders exactly one frame: the final snapshot.
	buf.Reset()
	if err := replay(&buf, snaps, true); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "monotop"); n != 1 {
		t.Fatalf("-last rendered %d frames, want 1", n)
	}
	if !strings.Contains(buf.String(), "[final]") {
		t.Fatal("-last did not render the final snapshot")
	}
	if err := replay(&buf, nil, false); err == nil {
		t.Fatal("empty stream replayed without error")
	}
}

func TestParseLine(t *testing.T) {
	s, err := parseLine([]byte("{\"seq\":3,\"t0\":1,\"t1\":2}\r\n"))
	if err != nil || s.Seq != 3 {
		t.Fatalf("parseLine: %+v, %v", s, err)
	}
	if _, err := parseLine([]byte("\n")); err == nil {
		t.Fatal("blank line parsed")
	}
	if _, err := parseLine([]byte("garbage\n")); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestHTTPHandlers(t *testing.T) {
	st := &store{}
	// Empty store: /latest and /render are 404, /snapshots an empty array.
	rr := httptest.NewRecorder()
	st.handleLatest().ServeHTTP(rr, httptest.NewRequest("GET", "/latest", nil))
	if rr.Code != 404 {
		t.Fatalf("/latest on empty store = %d, want 404", rr.Code)
	}
	rr = httptest.NewRecorder()
	st.handleRender().ServeHTTP(rr, httptest.NewRequest("GET", "/render", nil))
	if rr.Code != 404 {
		t.Fatalf("/render on empty store = %d, want 404", rr.Code)
	}

	f, err := os.Open(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snaps, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snaps {
		st.add(&snaps[i])
	}

	rr = httptest.NewRecorder()
	st.handleSnapshots().ServeHTTP(rr, httptest.NewRequest("GET", "/snapshots", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "\"seq\":1") {
		t.Fatalf("/snapshots = %d: %.80s", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	st.handleLatest().ServeHTTP(rr, httptest.NewRequest("GET", "/latest", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "\"final\":true") {
		t.Fatalf("/latest = %d: %.80s", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	st.handleRender().ServeHTTP(rr, httptest.NewRequest("GET", "/render", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "monotop") {
		t.Fatalf("/render = %d: %.80s", rr.Code, rr.Body.String())
	}
}
