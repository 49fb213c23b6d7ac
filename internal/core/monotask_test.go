package core

import (
	"testing"
	"unsafe"
)

// TestMonotaskNodeSize pins the monotask node's size: a run allocates a node
// per monotask, and each core session builds its workers, and so its node
// pools, afresh. A compute or output node points at its template blueprint
// and a network node at its task's fetch instead of copying them, and the
// phase, disk index and dependency count are narrowed; copying them took
// 176 bytes.
func TestMonotaskNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(monotask{}); got > 96 {
		t.Errorf("monotask is %d bytes, want ≤ 96", got)
	}
}
