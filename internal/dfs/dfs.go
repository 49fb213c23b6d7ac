// Package dfs is an HDFS-like distributed block store for the virtual
// cluster. It tracks metadata only — which machine and disk holds each block
// of each file — because the simulator charges I/O time by byte count, and
// the live data path keeps real records in memory. Files are split into
// fixed-size blocks placed round-robin across machines and disks, mirroring
// how HDFS distributes blocks over a cluster (§3.2).
package dfs

import (
	"fmt"
	"sort"
)

// DefaultBlockSize is the HDFS default, 128 MB.
const DefaultBlockSize int64 = 128 << 20

// Location identifies one replica: a machine and a disk index on it.
type Location struct {
	Machine int
	Disk    int
}

// Block is one block of a file.
type Block struct {
	File     string
	Index    int
	Bytes    int64
	Replicas []Location
}

// Primary returns the first replica, which HDFS places on the writer's
// machine when possible.
func (b *Block) Primary() Location { return b.Replicas[0] }

// IsLocal reports whether any replica lives on the given machine.
func (b *Block) IsLocal(machine int) bool {
	for _, r := range b.Replicas {
		if r.Machine == machine {
			return true
		}
	}
	return false
}

// LocalDisk returns the disk index of the replica on the given machine, or
// -1 if none.
func (b *Block) LocalDisk(machine int) int {
	for _, r := range b.Replicas {
		if r.Machine == machine {
			return r.Disk
		}
	}
	return -1
}

// File is an immutable sequence of blocks.
type File struct {
	Path   string
	Bytes  int64
	Blocks []*Block
}

// FS is the namenode: file metadata plus a placement cursor.
type FS struct {
	blockSize       int64
	machines        int
	disksPerMachine int
	files           map[string]*File
	placeCursor     int
	diskCursor      []int // per machine
}

// Config parameterizes the store.
type Config struct {
	BlockSize       int64 // defaults to 128 MB
	Machines        int
	DisksPerMachine int
	Replication     int // defaults to 1 (see DESIGN.md)
}

// New creates an empty filesystem over the given cluster shape.
func New(cfg Config) (*FS, error) {
	if cfg.Machines <= 0 || cfg.DisksPerMachine <= 0 {
		return nil, fmt.Errorf("dfs: need machines and disks, got %d/%d", cfg.Machines, cfg.DisksPerMachine)
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.Replication > cfg.Machines {
		return nil, fmt.Errorf("dfs: replication %d exceeds machine count %d", cfg.Replication, cfg.Machines)
	}
	return &FS{
		blockSize:       cfg.BlockSize,
		machines:        cfg.Machines,
		disksPerMachine: cfg.DisksPerMachine,
		files:           make(map[string]*File),
		diskCursor:      make([]int, cfg.Machines),
		placeCursor:     0,
	}, nil
}

// BlockSize reports the configured block size.
func (fs *FS) BlockSize() int64 { return fs.blockSize }

// Create writes a new file of the given logical size, splitting it into
// blocks and placing replicas round-robin. replication ≤ 0 uses 1.
func (fs *FS) Create(path string, bytes int64, replication int) (*File, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("dfs: file %q needs positive size, got %d", path, bytes)
	}
	n := int((bytes-1)/fs.blockSize) + 1
	blockBytes := make([]int64, n)
	locations := make([]int, n)
	for i := range blockBytes {
		blockBytes[i] = min(fs.blockSize, bytes-int64(i)*fs.blockSize)
		locations[i] = (fs.placeCursor + i) % fs.machines
	}
	f, err := fs.CreateAtReplicated(path, blockBytes, locations, replication)
	if err != nil {
		return nil, err
	}
	fs.placeCursor = (fs.placeCursor + n) % fs.machines
	return f, nil
}

// CreateAt writes a file whose block i's primary replica is forced onto
// machine locations[i] — used for task output, which HDFS writes locally.
func (fs *FS) CreateAt(path string, blockBytes []int64, locations []int) (*File, error) {
	return fs.CreateAtReplicated(path, blockBytes, locations, 1)
}

// CreateAtReplicated is CreateAt with extra replicas placed on the machines
// following each block's primary (HDFS-style pipeline placement). Failure
// experiments need replication ≥ 2, or a lost machine takes its blocks with
// it for good.
//
// The file's blocks come from one slab and their replicas from another. Each
// block's Replicas has capacity equal to the replication, so an append to
// one block's replicas can never write into the next block's.
func (fs *FS) CreateAtReplicated(path string, blockBytes []int64, locations []int, replication int) (*File, error) {
	if _, ok := fs.files[path]; ok {
		return nil, fmt.Errorf("dfs: %q already exists", path)
	}
	if len(blockBytes) != len(locations) {
		return nil, fmt.Errorf("dfs: %d block sizes but %d locations", len(blockBytes), len(locations))
	}
	if replication <= 0 {
		replication = 1
	}
	if replication > fs.machines {
		return nil, fmt.Errorf("dfs: replication %d exceeds machine count %d", replication, fs.machines)
	}
	f := &File{Path: path, Blocks: make([]*Block, len(blockBytes))}
	blocks := make([]Block, len(blockBytes))
	replicas := make([]Location, len(blockBytes)*replication)
	for i, sz := range blockBytes {
		m := locations[i]
		if m < 0 || m >= fs.machines {
			return nil, fmt.Errorf("dfs: block %d location %d out of range", i, m)
		}
		rs := replicas[i*replication : (i+1)*replication : (i+1)*replication]
		for r := range rs {
			rm := (m + r) % fs.machines
			d := fs.diskCursor[rm]
			fs.diskCursor[rm] = (d + 1) % fs.disksPerMachine
			rs[r] = Location{Machine: rm, Disk: d}
		}
		blocks[i] = Block{File: path, Index: i, Bytes: sz, Replicas: rs}
		f.Blocks[i] = &blocks[i]
		f.Bytes += sz
	}
	fs.files[path] = f
	return f, nil
}

// Open returns the file's metadata.
func (fs *FS) Open(path string) (*File, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: %q does not exist", path)
	}
	return f, nil
}

// Exists reports whether the path is present.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}

// Remove deletes a file. Removing a missing file is an error, matching HDFS.
func (fs *FS) Remove(path string) error {
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("dfs: %q does not exist", path)
	}
	delete(fs.files, path)
	return nil
}

// List returns all paths in lexicographic order.
func (fs *FS) List() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// BlocksOnMachine returns how many of the file's blocks have a replica on
// the given machine — the scheduler's locality signal.
func (fs *FS) BlocksOnMachine(path string, machine int) int {
	f, ok := fs.files[path]
	if !ok {
		return 0
	}
	n := 0
	for _, b := range f.Blocks {
		if b.IsLocal(machine) {
			n++
		}
	}
	return n
}
