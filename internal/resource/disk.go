package resource

import "repro/internal/sim"

// DiskKind selects the throughput model.
type DiskKind int

const (
	// HDD is a spinning disk: every request pays a seek, and concurrent
	// streams degrade aggregate throughput because the head thrashes.
	HDD DiskKind = iota
	// SSD is a flash drive: no seeks, and aggregate throughput *rises* with
	// outstanding operations until a saturation knee (the paper found ~4
	// outstanding monotasks reach peak throughput, §3.3).
	SSD
)

// String names the disk kind.
func (k DiskKind) String() string {
	if k == HDD {
		return "HDD"
	}
	return "SSD"
}

// DiskSpec describes one drive.
type DiskSpec struct {
	// Kind selects the drive model: HDD (seek-penalized) or SSD
	// (concurrency-saturating).
	Kind DiskKind
	// SeqBW is the sequential read/write bandwidth in bytes/second with no
	// contention (HDD) or at saturation (SSD).
	SeqBW float64
	// SeekTime is the per-request positioning cost in seconds (HDD only).
	SeekTime float64
	// ContentionAlpha controls HDD throughput collapse when reads and
	// writes mix: aggregate bandwidth with k concurrent streams is
	// SeqBW / (1 + α(k−1)), floored at MixedFloorFrac·SeqBW. α≈0.35 makes
	// four mixed streams cost ≈2× — the factor the paper observed MonoSpark
	// winning back on the sort workload (§5.4).
	ContentionAlpha float64
	// StreamingAlpha is the milder penalty when all concurrent streams go
	// the same direction (parallel sequential readers under OS readahead
	// mostly amortize seeks). Default 0.05.
	StreamingAlpha float64
	// MixedFloorFrac and StreamFloorFrac bound the collapse: past a few
	// streams the elevator scheduler amortizes seeks, so aggregate
	// throughput levels off rather than degrading without bound.
	// Defaults 0.5 (mixed) and 0.85 (uniform).
	MixedFloorFrac float64
	// StreamFloorFrac is the floor for streams that all go one direction,
	// as a fraction of SeqBW (see MixedFloorFrac).
	StreamFloorFrac float64
	// SaturationOps is the SSD knee: aggregate bandwidth with k outstanding
	// ops is SeqBW · min(k, SaturationOps)/SaturationOps.
	SaturationOps int
}

// DefaultHDD matches the calibration in DESIGN.md: 100 MB/s sequential,
// 8 ms seek, mixed α = 0.35 floored at 50%, streaming α = 0.05 floored at 85%.
func DefaultHDD() DiskSpec {
	return DiskSpec{
		Kind: HDD, SeqBW: 100e6, SeekTime: 0.008,
		ContentionAlpha: 0.35, StreamingAlpha: 0.05,
		MixedFloorFrac: 0.5, StreamFloorFrac: 0.85,
	}
}

// DefaultSSD matches the calibration in DESIGN.md: 400 MB/s, knee at 4
// outstanding operations.
func DefaultSSD() DiskSpec {
	return DiskSpec{Kind: SSD, SeqBW: 400e6, SaturationOps: 4}
}

// Disk models one drive as a fluid server over bytes. Seeks are charged by
// inflating each request's demand by SeekTime·SeqBW byte-equivalents, which
// approximates a per-operation positioning cost without simulating head
// movement.
type Disk struct {
	spec DiskSpec
	srv  *server
	eng  *sim.Engine
	// Util is 1 while the drive serves any request and 0 while it is idle.
	Util Tracker

	bytesRead    int64
	bytesWritten int64
	// Cumulative byte timelines (bytes charged at request submission),
	// queryable at any time — what an external observer with OS counters
	// could measure about this disk.
	ReadCum Tracker
	// WriteCum is ReadCum for the bytes written.
	WriteCum Tracker
}

// NewDisk creates a drive on eng.
func NewDisk(eng *sim.Engine, spec DiskSpec) *Disk {
	if spec.SeqBW <= 0 {
		panic("resource: disk needs positive bandwidth")
	}
	if spec.Kind == SSD && spec.SaturationOps <= 0 {
		spec.SaturationOps = 4
	}
	if spec.Kind == HDD {
		if spec.StreamingAlpha == 0 {
			spec.StreamingAlpha = 0.05
		}
		if spec.MixedFloorFrac == 0 {
			spec.MixedFloorFrac = 0.5
		}
		if spec.StreamFloorFrac == 0 {
			spec.StreamFloorFrac = 0.85
		}
	}
	d := &Disk{spec: spec, eng: eng}
	aggregate := func(readers, writers int) float64 {
		k := readers + writers
		switch spec.Kind {
		case HDD:
			alpha, floor := spec.StreamingAlpha, spec.StreamFloorFrac
			if readers > 0 && writers > 0 {
				alpha, floor = spec.ContentionAlpha, spec.MixedFloorFrac
			}
			agg := spec.SeqBW / (1 + alpha*float64(k-1))
			if min := spec.SeqBW * floor; agg < min {
				agg = min
			}
			return agg
		default: // SSD
			if k >= spec.SaturationOps {
				return spec.SeqBW
			}
			return spec.SeqBW * float64(k) / float64(spec.SaturationOps)
		}
	}
	d.srv = newServer(eng, aggregate,
		func(k int) {
			v := 0.0
			if k > 0 {
				v = 1.0
			}
			d.Util.Set(eng.Now(), v)
		})
	return d
}

// Spec returns the drive's parameters.
func (d *Disk) Spec() DiskSpec { return d.spec }

// Read submits a read of the given size; done fires at completion.
func (d *Disk) Read(bytes int64, done func()) *Job {
	d.countRead(bytes)
	return d.srv.Add(d.demand(bytes), done)
}

// Write submits a write of the given size; done fires when the bytes are on
// the platter. (The buffer-cache behaviour of the pipelined executor lives
// above this layer — by the time a write reaches the Disk it is a real
// device write.)
func (d *Disk) Write(bytes int64, done func()) *Job {
	d.countWrite(bytes)
	return d.srv.AddClass(d.demand(bytes), 1, done)
}

// ReadStream submits one chunk of a sequential streaming read. Unlike Read
// it charges no per-request seek: OS readahead makes a task's consecutive
// chunk reads sequential, and the cost of *interleaving* multiple streams is
// already modeled by the HDD contention factor. The pipelined executor's
// fine-grained chunk I/O uses these; monotasks use Read/Write, paying one
// seek per (large) request.
func (d *Disk) ReadStream(bytes int64, done func()) *Job {
	d.countRead(bytes)
	return d.srv.Add(float64(bytes), done)
}

// WriteStream submits one chunk of a sequential streaming write (no seek).
func (d *Disk) WriteStream(bytes int64, done func()) *Job {
	d.countWrite(bytes)
	return d.srv.AddClass(float64(bytes), 1, done)
}

func (d *Disk) countRead(bytes int64) {
	d.bytesRead += bytes
	d.ReadCum.Set(d.eng.Now(), float64(d.bytesRead))
}

func (d *Disk) countWrite(bytes int64) {
	d.bytesWritten += bytes
	d.WriteCum.Set(d.eng.Now(), float64(d.bytesWritten))
}

// SetSpeedFactor rescales the drive to factor times its configured bandwidth
// from the current virtual time onward (1 restores it). Fault injection uses
// it to model a degraded drive — remapped sectors, a failing controller —
// without changing the spec the performance model reads.
func (d *Disk) SetSpeedFactor(factor float64) { d.srv.setSpeed(factor) }

// Cancel abandons an in-flight request.
func (d *Disk) Cancel(j *Job) { d.srv.Remove(j) }

// Queue reports the number of in-service requests.
func (d *Disk) Queue() int { return d.srv.Count() }

// BytesRead reports cumulative bytes read from the disk.
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// BytesWritten reports cumulative bytes written to the disk.
func (d *Disk) BytesWritten() int64 { return d.bytesWritten }

// demand converts a request size to work units, charging the seek.
func (d *Disk) demand(bytes int64) float64 {
	w := float64(bytes)
	if d.spec.Kind == HDD {
		w += d.spec.SeekTime * d.spec.SeqBW
	}
	return w
}

// IdealTime returns the time to move the given bytes at uncontended
// sequential bandwidth — the denominator of the performance model's ideal
// disk time (§6.1).
func (d *Disk) IdealTime(bytes int64) sim.Duration {
	return sim.Duration(float64(bytes) / d.spec.SeqBW)
}
