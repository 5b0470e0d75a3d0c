package xen

import (
	"fmt"

	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// journeyTracker threads a per-request journey through the host's two-level
// block stack. Every guest submission gets a journey id at enqueue; the ring
// copies the id onto the Dom0-level request it creates, which lets the
// tracker stitch the guest leg, the Dom0 leg and the physical disk service
// back together when the guest request completes. The result is an ns-exact
// decomposition of each request's end-to-end latency into named stages
// (obs.JourneyRec) — the stages telescope, so they sum to Completed−Issued
// with no residue, which Finalize audits per request.
//
// Merge topology is depth-1 at both levels (only an incoming request merges
// into a queued one), so each guest request g resolves as:
//
//	p = g's guest dispatch parent (g itself unless merged)
//	L = the Dom0 request the ring created for p (same journey id)
//	A = L's Dom0 dispatch parent (L itself unless merged)
//
// and the stage arithmetic uses p's dispatch, L's queueing and A's disk
// service. A queue recycles a request once its completion hooks have run,
// so the tracker reads requests only inside those hooks, while the merge
// chain is still linked: when A completes at Dom0 it copies the leg of
// every L in A's chain, keyed by journey id, and when p completes at the
// guest it emits p and every request merged into it. Each entry is deleted
// when it is read, so a drained host's tracker holds nothing.
type journeyTracker struct {
	h   *Host
	log *obs.JourneyLog
	tr  *obs.Tracer

	overhead sim.Duration

	// guest keeps each pending guest request's pre-merge extent (merging
	// mutates the parent's extent in place), by journey id.
	guest map[int64]guestLeg
	// dom0 keeps each completed Dom0 leg, by journey id, until the guest
	// request it served completes one ring hop later.
	dom0 map[int64]dom0Leg
	// svc is the disk's seek/rotation/transfer split for the request in
	// service: the disk serves one request at a time, and the Dom0 queue
	// runs a request's completion hooks before it dispatches the next.
	svc svcParts
}

type guestLeg struct {
	sector, count int64
}

// dom0Leg is what a journey needs of its Dom0 request L after L is
// recycled: L's queue timestamps and backlog hold, and its dispatch
// parent's dispatch time and disk service split.
type dom0Leg struct {
	issued, dispatched, completed sim.Time
	hold                          sim.Duration
	svc                           svcParts
}

type svcParts struct {
	seek, rot, xfer sim.Duration
}

func newJourneyTracker(h *Host) *journeyTracker {
	t := &journeyTracker{
		h:        h,
		log:      h.cfg.Obs.Journeys,
		tr:       h.cfg.Obs.Trace,
		overhead: h.cfg.Disk.Overhead,
		guest:    make(map[int64]guestLeg),
		dom0:     make(map[int64]dom0Leg),
	}
	h.dom0.OnComplete(func(a *block.Request) {
		a.Each(func(l *block.Request) {
			t.dom0[l.Journey] = dom0Leg{
				issued:     l.Issued,
				dispatched: a.Dispatched,
				completed:  l.Completed,
				hold:       l.BacklogHold,
				svc:        t.svc,
			}
		})
	})
	prev := h.disk.OnServiceDetail
	h.disk.OnServiceDetail = func(r *block.Request, seek, rot, xfer sim.Duration) {
		if prev != nil {
			prev(r, seek, rot, xfer)
		}
		t.svc = svcParts{seek: seek, rot: rot, xfer: xfer}
	}
	return t
}

// attachGuest subscribes the tracker to one domain's queue. Journey ids are
// assigned here, at enqueue — before the backlog check and before any merge —
// so ids follow deterministic submission order even through switch drains.
// A guest dispatch parent completes one ring hop after its Dom0 leg, so
// every earlier hop is stamped by then.
func (t *journeyTracker) attachGuest(d *Domain) {
	vm := d.Index
	d.q.OnEnqueue(func(r *block.Request) {
		r.Journey = t.log.NextID()
		t.guest[r.Journey] = guestLeg{sector: r.Sector, count: r.Count}
	})
	d.q.OnComplete(func(p *block.Request) {
		l, ok := t.dom0[p.Journey]
		delete(t.dom0, p.Journey)
		p.Each(func(g *block.Request) { t.emit(vm, p, g, l, ok) })
	})
}

func (t *journeyTracker) emit(vm int, p, g *block.Request, l dom0Leg, linked bool) {
	leg := t.guest[g.Journey]
	delete(t.guest, g.Journey)

	var stages [obs.NumStages]sim.Duration
	stages[obs.StageGuestStall] = g.BacklogHold
	stages[obs.StageGuestQueue] = p.Dispatched.Sub(g.Issued) - g.BacklogHold
	if linked {
		stages[obs.StageRing] = l.issued.Sub(p.Dispatched) + g.Completed.Sub(l.completed)
		stages[obs.StageDom0Stall] = l.hold
		stages[obs.StageDom0Queue] = l.dispatched.Sub(l.issued) - l.hold
		stages[obs.StageSeek] = l.svc.seek
		stages[obs.StageRotation] = l.svc.rot
		stages[obs.StageTransfer] = l.svc.xfer
		stages[obs.StageOverhead] = t.overhead
	} else {
		// No Dom0 leg resolved (a linkage bug, not a workload condition):
		// fold the remainder into guest_queue so the record still sums, and
		// flag the break for the invariant harness.
		stages[obs.StageGuestQueue] = g.Completed.Sub(g.Issued) - g.BacklogHold
		t.report(g, "journey-link", "guest request %v completed without a resolvable Dom0 leg", g)
	}

	rec := obs.JourneyRec{
		ID:        g.Journey,
		Host:      t.h.ID,
		VM:        vm,
		Read:      g.Op == block.Read,
		Stream:    int64(g.Stream),
		Sector:    leg.sector,
		Sectors:   leg.count,
		Merged:    g != p,
		Issued:    g.Issued,
		Completed: g.Completed,
		Stages:    stages,
	}
	if sum, total := rec.StageSum(), rec.Total(); sum != total {
		t.report(g, "journey-exact", fmt.Sprintf(
			"stage sum %v != end-to-end latency %v for journey %d", sum, total, g.Journey))
	}
	for i, d := range stages {
		if d < 0 {
			t.report(g, "journey-exact", fmt.Sprintf(
				"negative stage %s (%v) for journey %d", obs.StageNames()[i], d, g.Journey))
		}
	}
	t.log.Add(rec)
	if t.tr != nil {
		op := "write"
		if rec.Read {
			op = "read"
		}
		t.tr.AsyncSpan(t.h.cfg.Obs.HostPID(t.h.ID), obs.VMTID(vm), "journey", op,
			rec.Issued, rec.Completed,
			obs.I("j", rec.ID),
			obs.I("sector", rec.Sector),
			obs.I("sectors", rec.Sectors),
			obs.I("stream", rec.Stream),
			obs.F("guest_queue_ms", stages[obs.StageGuestQueue].Millis()),
			obs.F("dom0_queue_ms", stages[obs.StageDom0Queue].Millis()),
			obs.F("service_ms", (stages[obs.StageSeek]+stages[obs.StageRotation]+stages[obs.StageTransfer]+stages[obs.StageOverhead]).Millis()))
	}
}

func (t *journeyTracker) report(g *block.Request, invariant string, format string, args ...any) {
	if t.h.cfg.Check == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	t.h.cfg.Check.Report(fmt.Sprintf("host%d/journey", t.h.ID), invariant, g.Completed, detail)
}
