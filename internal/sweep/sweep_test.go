package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

func TestResultsInCellOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Run(bg, workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d results, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestFailedCellsReportedInOrder(t *testing.T) {
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4} {
		got, err := Run(bg, workers, 20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("cell says %d: %w", i, wantErr)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: error %v does not wrap the cell error", workers, err)
		}
		// Every failing cell is named, lowest first.
		msg := err.Error()
		p7, p13 := strings.Index(msg, "cell 7"), strings.Index(msg, "cell 13")
		if p7 < 0 || p13 < 0 || p7 > p13 {
			t.Fatalf("workers=%d: error %q should name cells 7 and 13 in order", workers, msg)
		}
		// Healthy cells still ran and returned results alongside the error.
		if len(got) != 20 || got[6] != 6 || got[19] != 19 {
			t.Fatalf("workers=%d: healthy results lost: %v", workers, got)
		}
	}
}

func TestPanicBecomesCellError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, err := Run(bg, workers, 10, func(i int) (int, error) {
			if i == 3 {
				panic("kaput")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: cell panic not reported", workers)
		}
		msg := err.Error()
		if !strings.Contains(msg, "cell 3") || !strings.Contains(msg, "kaput") {
			t.Fatalf("workers=%d: error %q should name cell 3 and the panic value", workers, msg)
		}
		if len(got) != 10 || got[9] != 9 {
			t.Fatalf("workers=%d: healthy results lost after a cell panic: %v", workers, got)
		}
	}
}

func TestDeadlineFailsUnstartedCells(t *testing.T) {
	ctx, cancel := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel()
	_, err := Run(ctx, 4, 8, func(i int) (int, error) {
		t.Errorf("cell %d ran past the deadline", i)
		return i, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired sweep deadline: want DeadlineExceeded in chain, got %v", err)
	}
	// A cancelled context stops the cells that have not started yet; the
	// ones already running finish.
	ctx, cancel = context.WithCancel(bg)
	defer cancel()
	got, err := Run(ctx, 1, 8, func(i int) (int, error) {
		if i == 2 {
			cancel()
		}
		return i + 1, nil
	})
	if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "cell 2:") || !strings.Contains(err.Error(), "cell 3:") {
		t.Fatalf("cancel during cell 2: want cells 3-7 failed with context.Canceled, got %v", err)
	}
	if got[2] != 3 || got[3] != 0 {
		t.Fatalf("results after cancel = %v, want cells 0-2 filled and the rest zero", got)
	}
	// An untouched context runs every cell.
	if _, err := Run(bg, 4, 8, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

func TestEveryCellRunsExactlyOnce(t *testing.T) {
	var calls [200]atomic.Int32
	_, err := Run(bg, 16, len(calls), func(i int) (struct{}, error) {
		calls[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

func TestZeroCells(t *testing.T) {
	got, err := Run(bg, 4, 0, func(i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Run(0) = %v, %v; want nil, nil", got, err)
	}
}

// TestNonPositiveWorkersRunSerially: a worker count below one runs the
// cells inline, in order, on the calling goroutine.
func TestNonPositiveWorkersRunSerially(t *testing.T) {
	for _, workers := range []int{-3, 0, 1} {
		var order []int
		got, err := Run(bg, workers, 5, func(i int) (int, error) {
			order = append(order, i)
			return i, nil
		})
		if err != nil || len(got) != 5 {
			t.Fatalf("workers=%d: %v, %v", workers, got, err)
		}
		for i, c := range order {
			if c != i {
				t.Fatalf("workers=%d ran cells in order %v, want serial 0..4", workers, order)
			}
		}
	}
}
