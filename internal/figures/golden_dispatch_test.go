package figures

import (
	"bytes"
	"fmt"
	"testing"
)

// TestGoldenWorkerDispatch locks the delegated control plane's equivalence
// contract: the golden corpus (sort + big data benchmark), a two-seed chaos
// matrix (task kills via FailRunningTasks, flaky fetches driving the fetch
// retry timeout, crashes, machine exclusion), and the memory-model sweep must
// render byte-identical output with centralized driver dispatch and with
// worker-side dispatch. Worker-side dispatch is an execution strategy, not a
// policy change; any divergence means a worker-local fill picked a different
// task than the driver's global pass would have.
func TestGoldenWorkerDispatch(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		buf.Write(goldenOutput(t))
		cr, err := Chaos(2)
		if err != nil {
			t.Fatal(err)
		}
		cr.Fprint(&buf)
		for _, row := range cr.Rows {
			// The chaos plan injects task kills and flaky fetch windows, so
			// these verdicts cover FailRunningTasks and fetch-timeout retries
			// under whatever dispatch mode is active.
			if !row.Correct || !row.Reproducible {
				t.Fatalf("chaos seed %d: correct=%v reproducible=%v (%s)",
					row.Seed, row.Correct, row.Reproducible, row.Outcome)
			}
		}
		mr, err := Memory(true)
		if err != nil {
			t.Fatal(err)
		}
		mr.Fprint(&buf)
		// Full-precision rows: Fprint rounds for humans, but the equivalence
		// contract is bitwise.
		for _, row := range mr.Rows {
			fmt.Fprintf(&buf, "mem gb=%.9f dur=%.9f gc=%d spill=%d peak=%d attrib=%.9f\n",
				row.GB, row.Seconds, row.GCPauses, row.SpillBytes, row.PeakResident, row.AttribErrPct)
		}
		return buf.Bytes()
	}
	centralized := render()
	defer SetWorkerDispatch(false)
	SetWorkerDispatch(true)
	delegated := render()
	if !bytes.Equal(centralized, delegated) {
		t.Fatalf("worker dispatch diverged from centralized at:\n%s",
			firstDiffLine(delegated, centralized))
	}
}
