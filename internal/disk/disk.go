// Package disk models a rotational SATA disk at the service-time level:
// seek (distance-dependent), rotational latency (skipped for head-adjacent
// requests), media transfer, and a fixed per-request overhead. The model is
// deliberately simple — elevator quality differences come almost entirely
// from how much seeking they induce, which this captures.
package disk

import (
	"math"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

// Config describes the disk geometry and timing. All paper experiments use
// one dedicated 1 TB 7200 rpm SATA disk per physical node.
type Config struct {
	// Sectors is the addressable capacity in 512 B sectors.
	Sectors int64
	// SeekMin is the track-to-track (shortest) seek time.
	SeekMin sim.Duration
	// SeekMax is the full-stroke seek time.
	SeekMax sim.Duration
	// RPM is the spindle speed; average rotational latency is half a turn.
	RPM int
	// TransferMBps is the sustained media rate in MB/s (1 MB = 1e6 bytes).
	TransferMBps float64
	// Overhead is the fixed per-request controller/command cost.
	Overhead sim.Duration
	// NearDistance is the sector distance under which a request counts as
	// head-adjacent: no positioning cost at all.
	NearDistance int64
	// ZoneDistance bounds the cheap-forward regime: a forward hop shorter
	// than this pays only SettleTime (track-to-track moves within a zone
	// ride the same rotation, helped by the drive's lookahead buffer).
	// Backward hops and longer moves pay the full seek + rotation.
	ZoneDistance int64
	// SettleTime is the cost of a short forward repositioning.
	SettleTime sim.Duration
}

// DefaultConfig models the paper's 1 TB 7200 rpm SATA disks.
func DefaultConfig() Config {
	return Config{
		Sectors:      2_000_000_000, // ~1 TB
		SeekMin:      800 * sim.Microsecond,
		SeekMax:      18 * sim.Millisecond,
		RPM:          7200,
		TransferMBps: 100,
		Overhead:     150 * sim.Microsecond,
		NearDistance: 2048,            // 1 MB
		ZoneDistance: 1024 * 1024 * 2, // 1 GiB
		SettleTime:   3 * sim.Millisecond,
	}
}

// Stats aggregates disk activity for throughput accounting.
type Stats struct {
	Requests     int64
	Bytes        int64
	BusyTime     sim.Duration
	SeekTime     sim.Duration
	TransferTime sim.Duration
	Seeks        int64 // non-adjacent repositioning operations
	// LastDoneAt is when the most recent request finished (the precise end
	// of a disk-bound epoch).
	LastDoneAt sim.Time
}

// Disk is a single-spindle device servicing one request at a time. It
// implements block.Device and is placed under the Dom0 (VMM) queue.
type Disk struct {
	eng  *sim.Engine
	cfg  Config
	head int64
	busy bool

	// pending is the in-service request and its completion callback;
	// finishFn is bound once at construction so servicing a request
	// schedules no per-request closure (depth-1 means one slot suffices).
	pending     *block.Request
	pendingDone func(*block.Request)
	finishFn    func()

	stats Stats

	// OnService, if set, observes every request as it starts service,
	// with its positioning and transfer costs (tracing/debugging).
	OnService func(r *block.Request, position, transfer sim.Duration)

	// OnServiceDetail, if set, observes every request as it starts
	// service with the positioning cost split into seek and rotation
	// (journey stage attribution). Fires after OnService.
	OnServiceDetail func(r *block.Request, seek, rot, transfer sim.Duration)
}

// New creates a disk with its head parked at sector 0.
func New(eng *sim.Engine, cfg Config) *Disk {
	if cfg.Sectors <= 0 || cfg.TransferMBps <= 0 || cfg.RPM <= 0 {
		panic("disk: invalid config")
	}
	d := &Disk{eng: eng, cfg: cfg}
	d.finishFn = d.finish
	return d
}

// Config returns the disk's configuration.
func (d *Disk) Config() Config { return d.cfg }

// Head returns the current head sector position.
func (d *Disk) Head() int64 { return d.head }

// Stats returns a snapshot of the accumulated counters.
func (d *Disk) Stats() Stats { return d.stats }

// ServiceParts computes how long a request at the given head position
// takes, split into its mechanical components: seek (head movement — the
// settle cost of a short forward hop counts as seek), rotational latency
// and transfer. The total service time is seek + rot + transfer +
// Config.Overhead, an exact integer-nanosecond identity journey
// decompositions rely on.
func (d *Disk) ServiceParts(r *block.Request, head int64) (seek, rot, transfer sim.Duration) {
	delta := r.Sector - head
	dist := delta
	if dist < 0 {
		dist = -dist
	}
	switch {
	case dist <= d.cfg.NearDistance:
		// Head-adjacent: continues the current run.
	case delta > 0 && dist <= d.cfg.ZoneDistance:
		// Short forward hop: settle only (one-way elevators live here).
		seek = d.cfg.SettleTime
	default:
		frac := math.Sqrt(float64(dist) / float64(d.cfg.Sectors))
		seek = sim.Duration(float64(d.cfg.SeekMin) + frac*float64(d.cfg.SeekMax-d.cfg.SeekMin))
		rot = sim.Duration(float64(30*sim.Second) / float64(d.cfg.RPM)) // half turn
	}
	bytes := float64(r.Count * block.SectorSize)
	transfer = sim.Duration(bytes / (d.cfg.TransferMBps * 1e6) * float64(sim.Second))
	return seek, rot, transfer
}

// Service implements block.Device.
func (d *Disk) Service(r *block.Request, done func(*block.Request)) {
	if d.busy {
		panic("disk: overlapping service (queue depth must be 1)")
	}
	d.busy = true
	seek, rot, xfer := d.ServiceParts(r, d.head)
	pos := seek + rot
	total := pos + xfer + d.cfg.Overhead

	d.stats.Requests++
	d.stats.Bytes += r.Bytes()
	d.stats.BusyTime += total
	d.stats.SeekTime += pos
	d.stats.TransferTime += xfer
	if pos > 0 {
		d.stats.Seeks++
	}

	if d.OnService != nil {
		d.OnService(r, pos, xfer)
	}
	if d.OnServiceDetail != nil {
		d.OnServiceDetail(r, seek, rot, xfer)
	}
	d.head = r.End()
	d.pending = r
	d.pendingDone = done
	d.eng.Schedule(total, d.finishFn)
}

// finish completes the in-service request. The slot is cleared before the
// callback runs because done(r) may synchronously re-enter Service.
func (d *Disk) finish() {
	r, done := d.pending, d.pendingDone
	d.pending, d.pendingDone = nil, nil
	d.busy = false
	d.stats.LastDoneAt = d.eng.Now()
	done(r)
}
