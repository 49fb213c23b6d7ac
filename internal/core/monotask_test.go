package core

import (
	"testing"
	"unsafe"
)

// TestMonotaskNodeSize pins the monotask node's size: a run allocates a node
// per monotask it has in flight at once, beyond the free lists its workers
// took up from an earlier run. A compute or output node points at its
// template blueprint and a network node at its task's fetch instead of
// copying them, and the phase, disk index and dependency count are
// narrowed; copying them took 176 bytes.
func TestMonotaskNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(monotask{}); got > 96 {
		t.Errorf("monotask is %d bytes, want ≤ 96", got)
	}
}
