package dfs

import (
	"testing"
	"testing/quick"
)

func newFS(t *testing.T, machines, disks int) *FS {
	t.Helper()
	fs, err := New(Config{Machines: machines, DisksPerMachine: disks})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCreateSplitsIntoBlocks(t *testing.T) {
	fs := newFS(t, 4, 2)
	f, err := fs.Create("/input", 300<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 300 MB at 128 MB blocks: 128 + 128 + 44.
	if len(f.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(f.Blocks))
	}
	if f.Blocks[0].Bytes != 128<<20 || f.Blocks[2].Bytes != 44<<20 {
		t.Fatalf("block sizes %d, %d, %d", f.Blocks[0].Bytes, f.Blocks[1].Bytes, f.Blocks[2].Bytes)
	}
	var total int64
	for _, b := range f.Blocks {
		total += b.Bytes
	}
	if total != 300<<20 {
		t.Fatalf("blocks sum to %d, want %d", total, int64(300<<20))
	}
}

func TestPlacementRoundRobinAcrossMachines(t *testing.T) {
	fs := newFS(t, 4, 2)
	f, _ := fs.Create("/input", 8*DefaultBlockSize, 1)
	counts := make(map[int]int)
	for _, b := range f.Blocks {
		counts[b.Primary().Machine]++
	}
	for m := 0; m < 4; m++ {
		if counts[m] != 2 {
			t.Fatalf("machine %d holds %d blocks, want 2 (even spread)", m, counts[m])
		}
	}
}

func TestPlacementRotatesDisks(t *testing.T) {
	fs := newFS(t, 1, 2)
	f, _ := fs.Create("/input", 4*DefaultBlockSize, 1)
	if f.Blocks[0].Primary().Disk == f.Blocks[1].Primary().Disk {
		t.Fatal("consecutive blocks on the same machine should rotate disks")
	}
}

func TestReplication(t *testing.T) {
	fs := newFS(t, 3, 1)
	f, _ := fs.Create("/input", DefaultBlockSize, 3)
	b := f.Blocks[0]
	if len(b.Replicas) != 3 {
		t.Fatalf("got %d replicas, want 3", len(b.Replicas))
	}
	seen := make(map[int]bool)
	for _, r := range b.Replicas {
		if seen[r.Machine] {
			t.Fatal("two replicas on one machine")
		}
		seen[r.Machine] = true
	}
	for m := 0; m < 3; m++ {
		if !b.IsLocal(m) {
			t.Fatalf("block should be local to machine %d", m)
		}
		if b.LocalDisk(m) < 0 {
			t.Fatalf("LocalDisk(%d) = -1", m)
		}
	}
}

func TestLocalityQueries(t *testing.T) {
	fs := newFS(t, 4, 1)
	fs.Create("/input", 4*DefaultBlockSize, 1)
	total := 0
	for m := 0; m < 4; m++ {
		total += fs.BlocksOnMachine("/input", m)
	}
	if total != 4 {
		t.Fatalf("BlocksOnMachine sums to %d, want 4", total)
	}
	if fs.BlocksOnMachine("/missing", 0) != 0 {
		t.Fatal("missing file should have zero local blocks")
	}
	f, _ := fs.Open("/input")
	b := f.Blocks[0]
	other := (b.Primary().Machine + 1) % 4
	if b.IsLocal(other) {
		t.Fatal("unreplicated block should not be local elsewhere")
	}
	if b.LocalDisk(other) != -1 {
		t.Fatal("LocalDisk on remote machine should be -1")
	}
}

func TestCreateAt(t *testing.T) {
	fs := newFS(t, 4, 2)
	f, err := fs.CreateAt("/out", []int64{10, 20, 30}, []int{2, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if f.Bytes != 60 {
		t.Fatalf("Bytes = %d, want 60", f.Bytes)
	}
	if f.Blocks[0].Primary().Machine != 2 || f.Blocks[2].Primary().Machine != 0 {
		t.Fatal("CreateAt ignored forced locations")
	}
	if f.Blocks[0].Primary().Disk == f.Blocks[1].Primary().Disk {
		t.Fatal("two blocks on machine 2 should use different disks")
	}
	if _, err := fs.CreateAt("/bad", []int64{1}, []int{9}); err == nil {
		t.Fatal("out-of-range location accepted")
	}
	if _, err := fs.CreateAt("/bad2", []int64{1, 2}, []int{0}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestErrors(t *testing.T) {
	fs := newFS(t, 2, 1)
	if _, err := fs.Create("/a", 0, 1); err == nil {
		t.Error("zero-size file accepted")
	}
	fs.Create("/a", 1, 1)
	if _, err := fs.Create("/a", 1, 1); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := fs.Create("/b", 1, 5); err == nil {
		t.Error("replication > machines accepted")
	}
	if _, err := fs.Open("/missing"); err == nil {
		t.Error("open of missing file succeeded")
	}
	if err := fs.Remove("/missing"); err == nil {
		t.Error("remove of missing file succeeded")
	}
	if err := fs.Remove("/a"); err != nil {
		t.Errorf("remove failed: %v", err)
	}
	if fs.Exists("/a") {
		t.Error("file exists after remove")
	}
	if _, err := New(Config{Machines: 0, DisksPerMachine: 1}); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := New(Config{Machines: 2, DisksPerMachine: 1, Replication: 3}); err == nil {
		t.Error("config replication > machines accepted")
	}
}

func TestList(t *testing.T) {
	fs := newFS(t, 2, 1)
	fs.Create("/b", 1, 1)
	fs.Create("/a", 1, 1)
	got := fs.List()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Fatalf("List = %v, want sorted [/a /b]", got)
	}
}

// Property: for any file size, blocks tile the file exactly and every block
// except the last is full-size.
func TestPropertyBlockTiling(t *testing.T) {
	fs := newFS(t, 7, 3)
	i := 0
	f := func(szRaw uint32) bool {
		sz := int64(szRaw)%(3*DefaultBlockSize) + 1
		i++
		file, err := fs.Create(pathN(i), sz, 1)
		if err != nil {
			return false
		}
		var sum int64
		for j, b := range file.Blocks {
			sum += b.Bytes
			if j < len(file.Blocks)-1 && b.Bytes != DefaultBlockSize {
				return false
			}
			if b.Bytes <= 0 || b.Bytes > DefaultBlockSize {
				return false
			}
		}
		return sum == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func pathN(i int) string {
	return "/prop/" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
}

// TestCreateAtReplicatedAllocs: a 1,280-block file takes a handful of
// allocations (the file, its block pointers, one block slab and one replica
// slab) at replication 1 and 3, where one allocation per block and per
// replica append took 2,574 and 5,134. Each block's replicas are capped at
// the replication, so an append to one block's replicas leaves the next
// block's alone.
func TestCreateAtReplicatedAllocs(t *testing.T) {
	const n = 1280
	sizes := make([]int64, n)
	locations := make([]int, n)
	for i := range sizes {
		sizes[i] = DefaultBlockSize
		locations[i] = i % 4
	}
	for _, replication := range []int{1, 3} {
		fs := newFS(t, 4, 2)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := fs.CreateAtReplicated("/f", sizes, locations, replication); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove("/f"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Errorf("replication %d: %v allocations for a %d-block file, want at most 5", replication, allocs, n)
		}
		f, err := fs.CreateAtReplicated("/g", sizes, locations, replication)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range f.Blocks {
			if len(b.Replicas) != replication || cap(b.Replicas) != replication {
				t.Fatalf("replication %d: block %d has %d replicas, capacity %d", replication, i, len(b.Replicas), cap(b.Replicas))
			}
		}
		next := append([]Location(nil), f.Blocks[1].Replicas...)
		_ = append(f.Blocks[0].Replicas, Location{Machine: 99, Disk: 99})
		for r, loc := range f.Blocks[1].Replicas {
			if loc != next[r] {
				t.Fatalf("replication %d: appending to block 0's replicas changed block 1's replica %d to %+v", replication, r, loc)
			}
		}
	}
}
