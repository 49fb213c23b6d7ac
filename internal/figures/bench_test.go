package figures

import (
	"context"
	"testing"

	"repro/internal/units"
)

// BenchmarkSortEndToEnd measures a full small sort — job build, both
// executors, metrics collection — through the same SortSized path the golden
// test locks down. One worker, so the number reflects single-core
// simulation cost, not pool scheduling.
func BenchmarkSortEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SortSized(context.Background(), Setup{Workers: 1}, 8*units.GB, 4); err != nil {
			b.Fatal(err)
		}
	}
}
