// Package xen models the two-level virtualized block stack of a Xen host:
// each guest domain (DomU) runs its own elevator over a paravirtual disk
// whose backend forwards requests — retagged with the VM's identity — into
// the Dom0 request queue, whose elevator finally feeds the physical disk.
//
// VM disk images are disjoint contiguous extents of the physical disk, so
// guest-sequential I/O stays host-sequential inside one VM's extent while
// different VMs' streams are megabytes apart — the geometry behind the
// inter-VM seek interference the paper measures.
package xen

import (
	"fmt"

	"adaptmr/internal/block"
	"adaptmr/internal/check"
	"adaptmr/internal/cpusim"
	"adaptmr/internal/disk"
	"adaptmr/internal/iosched"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// HostConfig describes one physical node.
type HostConfig struct {
	Disk disk.Config
	// Sched is the scheduler parameter set shared by Dom0 and guests.
	Sched iosched.Params
	// RingLatency is the blkfront→blkback hop (hypercall + grant copy).
	RingLatency sim.Duration
	// GuestDepth is how many requests a guest queue keeps outstanding at
	// its backend ring.
	GuestDepth int
	// Dom0Depth is the dispatch depth from the Dom0 queue to the disk.
	Dom0Depth int
	// SwitchReinit is the fixed elevator re-init stall applied on a
	// scheduler switch after the queue drains (sysfs path, elevator_init).
	SwitchReinit sim.Duration
	// VMExtentSectors is the size of each VM's disk image extent.
	VMExtentSectors int64
	// VMExtentGap leaves unallocated space between images (image files are
	// not adjacent on the host filesystem).
	VMExtentGap int64
	// VCPUSpeed is each VM's CPU speed in core-equivalents.
	VCPUSpeed float64
	// Obs receives traces and metrics from the host's queues and disk.
	// The zero value disables observation.
	Obs obs.Sink
	// Check, when non-nil, attaches runtime invariant checkers to every
	// queue built for this host (Dom0 and each guest). Violations
	// accumulate in the set; nil disables checking at zero cost.
	Check *check.Set
}

// DefaultHostConfig mirrors the paper testbed: Xen 3.4.2, one SATA disk,
// 1-VCPU VMs pinned to their own cores.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		Disk:            disk.DefaultConfig(),
		Sched:           iosched.DefaultParams(),
		RingLatency:     60 * sim.Microsecond,
		GuestDepth:      8,
		Dom0Depth:       1,
		SwitchReinit:    80 * sim.Millisecond,
		VMExtentSectors: 100 * 1024 * 1024 * 2, // 100 GiB per VM image
		VMExtentGap:     4 * 1024 * 1024 * 2,   // 4 GiB between images
		VCPUSpeed:       1.0,
	}
}

// Host is one physical machine: a disk, a Dom0 queue, and guest domains.
type Host struct {
	Eng *sim.Engine
	ID  int

	cfg  HostConfig
	disk *disk.Disk
	dom0 *block.Queue

	// Per-level scheduler params: identical tunables but distinct shared
	// counter sets, so Dom0 and guest elevator decisions aggregate
	// separately and survive elevator switches.
	dom0Sched  iosched.Params
	guestSched iosched.Params

	domains []*Domain
	pair    iosched.Pair

	// ringLane carries both ring hops of every domain on the host: the
	// hop latency is fixed and never cancelled, so the hops fire from the
	// engine's FIFO lane for that delay instead of its calendar.
	ringLane *sim.Lane

	// journeys, when non-nil, threads request-journey tracing through
	// both queue levels (see journey.go).
	journeys *journeyTracker

	// pool recycles every request the host's stack creates (guest
	// submissions and the Dom0 requests the rings spawn) with a
	// free-at-complete lifecycle. It is nil under journey tracing, which
	// reads requests after queue completion, and detect-only under Check,
	// whose ledger is pointer-keyed. Pooling never changes simulated
	// results.
	pool *block.Pool
}

// NewHost builds a host with the given number of guest domains, all
// initially running the default (CFQ, CFQ) pair.
func NewHost(eng *sim.Engine, id int, numVMs int, cfg HostConfig) *Host {
	if numVMs <= 0 {
		panic("xen: host needs at least one VM")
	}
	h := &Host{Eng: eng, ID: id, cfg: cfg, pair: iosched.DefaultPair, ringLane: eng.Lane(cfg.RingLatency)}
	h.dom0Sched = cfg.Sched
	h.dom0Sched.Decisions = obs.NewDecisionRecorder(cfg.Obs, cfg.Obs.HostPID(id), obs.TIDDom0, "dom0")
	h.guestSched = cfg.Sched
	h.disk = disk.New(eng, cfg.Disk)
	h.dom0 = block.NewQueue(eng, iosched.MustNew(h.pair.VMM, h.dom0Sched), h.disk, cfg.Dom0Depth)
	if cfg.Check != nil {
		cfg.Check.Attach(eng, h.dom0, fmt.Sprintf("host%d/dom0", id), h.dom0Sched)
	}
	if cfg.Obs.Enabled() {
		pid := cfg.Obs.HostPID(id)
		if tr := cfg.Obs.Trace; tr != nil {
			tr.NameProcess(pid, cfg.Obs.ProcName(obs.HostLabel(id)))
			tr.NameThread(pid, obs.TIDDom0, "dom0 elevator")
			tr.NameThread(pid, obs.TIDDisk, "disk")
			tr.NameThread(pid, obs.TIDNet, "nic")
		}
		cfg.Obs.InstrumentQueue(h.dom0, pid, obs.TIDDom0, "dom0")
		cfg.Obs.InstrumentDisk(h.disk, pid, obs.TIDDisk)
	}
	if cfg.Obs.Journeys != nil {
		h.journeys = newJourneyTracker(h)
	}
	if h.journeys == nil {
		if cfg.Check != nil {
			// Detect-only pool: lifecycle violations land in the checker's
			// report; memory is never recycled, so the checker's
			// pointer-keyed request ledger stays valid.
			poolName := fmt.Sprintf("host%d/pool", id)
			h.pool = block.NewPool(true, func(format string, args ...any) {
				cfg.Check.Report(poolName, "pool-lifecycle", eng.Now(), fmt.Sprintf(format, args...))
			})
		} else {
			h.pool = block.NewPool(false, nil)
		}
	}
	for i := 0; i < numVMs; i++ {
		h.domains = append(h.domains, newDomain(h, i))
	}
	return h
}

// Obs returns the observability sink threaded through the host.
func (h *Host) Obs() obs.Sink { return h.cfg.Obs }

// Config returns the host configuration.
func (h *Host) Config() HostConfig { return h.cfg }

// Disk returns the physical disk model.
func (h *Host) Disk() *disk.Disk { return h.disk }

// Dom0Queue returns the hypervisor-level request queue.
func (h *Host) Dom0Queue() *block.Queue { return h.dom0 }

// Domains returns the guest domains on this host.
func (h *Host) Domains() []*Domain { return h.domains }

// Domain returns guest i.
func (h *Host) Domain(i int) *Domain { return h.domains[i] }

// Pair returns the currently installed scheduler pair.
func (h *Host) Pair() iosched.Pair { return h.pair }

// SetPair switches the Dom0 elevator and every guest elevator to the given
// pair, mimicking `echo sched > /sys/block/*/queue/scheduler` issued in
// Dom0 and in each VM. Every queue drains independently; onDone fires when
// all switches complete. Re-asserting the current pair still drains — the
// paper observes the switch command is costly even when the target equals
// the current scheduler.
func (h *Host) SetPair(p iosched.Pair, onDone func()) {
	if !p.Valid() {
		panic(fmt.Sprintf("xen: invalid pair %v", p))
	}
	h.pair = p
	remaining := 1 + len(h.domains)
	finish := func() {
		remaining--
		if remaining == 0 && onDone != nil {
			onDone()
		}
	}
	h.dom0.SetElevator(iosched.MustNew(p.VMM, h.dom0Sched), h.cfg.SwitchReinit, finish)
	for _, d := range h.domains {
		d.q.SetElevator(iosched.MustNew(p.VM, d.params), h.cfg.SwitchReinit, finish)
	}
}

// Switching reports whether any queue on the host is mid-switch.
func (h *Host) Switching() bool {
	if h.dom0.Switching() {
		return true
	}
	for _, d := range h.domains {
		if d.q.Switching() {
			return true
		}
	}
	return false
}

// QuiesceThen runs fn once all queues on the host are idle (used by tests
// and the dd/sysbench harnesses for clean epochs).
func (h *Host) Idle() bool {
	if h.dom0.Pending() > 0 {
		return false
	}
	for _, d := range h.domains {
		if d.q.Pending() > 0 {
			return false
		}
	}
	return true
}

// Domain is one guest VM.
type Domain struct {
	host  *Host
	Index int // position within the host

	extentStart int64
	extentLen   int64

	// params is this domain's guest scheduler parameter set: the host's
	// shared tunables and counters, plus a per-domain decision recorder
	// (each VM elevator records on its own trace thread).
	params iosched.Params

	q    *block.Queue
	VCPU *cpusim.VCPU
}

// ring is the paravirtual disk backend: it forwards guest requests into the
// Dom0 queue after the ring hop, retagged with the domain's stream id.
//
// Each in-flight request is tracked by a ringOp recycled through a per-ring
// freelist; the op's callbacks are method values bound once at construction,
// so a forwarded request costs no closure allocations in steady state.
type ring struct {
	d    *Domain
	free []*ringOp
}

// ringOp is one guest request crossing the ring: guest→Dom0 forward hop,
// Dom0 service, Dom0→guest completion hop.
type ringOp struct {
	rg    *ring
	guest *block.Request
	done  func(*block.Request)

	fireFn     func()               // bound once: forward
	hostDoneFn func(*block.Request) // bound once: hostDone
	backFn     func()               // bound once: back
}

func (rg *ring) getOp(r *block.Request, done func(*block.Request)) *ringOp {
	var o *ringOp
	if n := len(rg.free); n > 0 {
		o = rg.free[n-1]
		rg.free[n-1] = nil
		rg.free = rg.free[:n-1]
	} else {
		o = &ringOp{rg: rg}
		o.fireFn = o.forward
		o.hostDoneFn = o.hostDone
		o.backFn = o.back
	}
	o.guest, o.done = r, done
	return o
}

func (rg *ring) putOp(o *ringOp) {
	o.guest, o.done = nil, nil
	rg.free = append(rg.free, o)
}

// forward runs after the guest→Dom0 ring hop: the request is translated
// into the host address space and tagged with the VM identity (the Dom0
// elevator sees each VM as a single process), then queued at Dom0.
func (o *ringOp) forward() {
	d := o.rg.d
	host := d.host.newRequest(o.guest.Op, d.extentStart+o.guest.Sector, o.guest.Count, o.guest.Sync, block.StreamID(d.Index))
	// The Dom0 request inherits the guest request's journey id, which
	// is what lets a physical disk service be attributed back to the
	// guest submission it served.
	host.Journey = o.guest.Journey
	host.OnComplete = o.hostDoneFn
	d.host.dom0.Submit(host)
}

// hostDone fires when Dom0 completes the host-side request; the completion
// crosses the ring back to the guest.
func (o *ringOp) hostDone(*block.Request) {
	o.rg.d.host.ringLane.Schedule(o.backFn)
}

// back completes the guest request. The op is recycled before the callback
// runs because done may synchronously re-enter Service.
func (o *ringOp) back() {
	guest, done := o.guest, o.done
	o.rg.putOp(o)
	done(guest)
}

func newDomain(h *Host, index int) *Domain {
	d := &Domain{
		host:        h,
		Index:       index,
		extentStart: int64(index) * (h.cfg.VMExtentSectors + h.cfg.VMExtentGap),
		extentLen:   h.cfg.VMExtentSectors,
	}
	if d.extentStart+d.extentLen > h.cfg.Disk.Sectors {
		panic("xen: VM extents exceed disk capacity")
	}
	d.params = h.guestSched
	d.params.Decisions = obs.NewDecisionRecorder(h.cfg.Obs, h.cfg.Obs.HostPID(h.ID), obs.VMTID(index), "vm")
	d.q = block.NewQueue(h.Eng, iosched.MustNew(h.pair.VM, d.params), &ring{d: d}, h.cfg.GuestDepth)
	if h.cfg.Check != nil {
		h.cfg.Check.Attach(h.Eng, d.q, fmt.Sprintf("host%d/vm%d", h.ID, index), d.params)
	}
	d.VCPU = cpusim.New(h.Eng, h.cfg.VCPUSpeed)
	if h.cfg.Obs.Enabled() {
		pid := h.cfg.Obs.HostPID(h.ID)
		tid := obs.VMTID(index)
		if tr := h.cfg.Obs.Trace; tr != nil {
			tr.NameThread(pid, tid, fmt.Sprintf("vm%d elevator", index))
			tr.NameThread(pid, obs.VMTaskTID(index), fmt.Sprintf("vm%d tasks", index))
		}
		h.cfg.Obs.InstrumentQueue(d.q, pid, tid, "vm")
	}
	if h.journeys != nil {
		h.journeys.attachGuest(d)
	}
	return d
}

// Host returns the physical node hosting the domain.
func (d *Domain) Host() *Host { return d.host }

// Queue returns the guest-level request queue.
func (d *Domain) Queue() *block.Queue { return d.q }

// ExtentSectors returns the size of the VM's virtual disk.
func (d *Domain) ExtentSectors() int64 { return d.extentLen }

// Submit issues a guest block request. sector is in the VM's virtual disk
// address space; stream identifies the guest process for the guest
// elevator's fairness/anticipation decisions. onComplete (which may be nil)
// is installed directly as the request's completion hook; the request it
// receives must not be retained — it may be recycled once the hook returns.
func (d *Domain) Submit(op block.Op, sector, count int64, sync bool, stream block.StreamID, onComplete func(*block.Request)) {
	if sector < 0 || sector+count > d.extentLen {
		panic(fmt.Sprintf("xen: guest request [%d+%d] outside VM extent of %d sectors", sector, count, d.extentLen))
	}
	r := d.host.newRequest(op, sector, count, sync, stream)
	r.OnComplete = onComplete
	d.q.Submit(r)
}

// newRequest allocates a request from the host pool when pooling is on.
func (h *Host) newRequest(op block.Op, sector, count int64, sync bool, stream block.StreamID) *block.Request {
	if h.pool != nil {
		return h.pool.Get(op, sector, count, sync, stream)
	}
	return block.NewRequest(op, sector, count, sync, stream)
}

// Service implements block.Device for the guest queue: the request crosses
// the ring (see ringOp for the forward/complete hops).
func (rg *ring) Service(r *block.Request, done func(*block.Request)) {
	rg.d.host.ringLane.Schedule(rg.getOp(r, done).fireFn)
}
