package iosched

import (
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// These tests pin the live-switch edge the online controller exercises
// thousands of times per run: SetElevator landing while the old elevator
// has an armed anticipation window (AS) or idle/slice window (CFQ). Once
// the drain completes, the retired elevator must never be polled again —
// a post-drain poll fires phantom timeout/expire decisions and mutates
// per-stream trust state on an elevator that has logically exited.

// fixedLatencyDev services each request in 200us plus 10us per sector.
type fixedLatencyDev struct{ eng *sim.Engine }

func (d *fixedLatencyDev) Service(r *block.Request, done func(*block.Request)) {
	lat := sim.Duration(200+r.Count*10) * sim.Microsecond
	d.eng.Schedule(lat, func() { done(r) })
}

// liveSwitchQueue builds a real queue over elv with a fixed-latency device.
func liveSwitchQueue(elv block.Elevator) (*sim.Engine, *block.Queue) {
	eng := sim.New(1)
	q := block.NewQueue(eng, elv, &fixedLatencyDev{eng: eng}, 1)
	return eng, q
}

func TestNoPhantomAnticTimeoutAcrossSwitch(t *testing.T) {
	p := DefaultParams()
	log := obs.NewDecisionLog()
	p.Decisions = obs.NewDecisionRecorder(obs.Sink{Decisions: log}, 1, obs.TIDDom0, "dom0")
	as := NewAnticipatory(p)
	eng, q := liveSwitchQueue(as)

	// One trusted-stream read: its completion (~280us) arms anticipation
	// and the queue's idle wake for anticUntil = done + 6ms.
	q.Submit(req(block.Read, 100, 1))

	// Switch at 1ms — inside the anticipation window, queue fully idle.
	// The drain is instant; the 50ms re-init stall covers anticUntil, so a
	// stale wake would fire squarely mid-stall.
	switched := false
	eng.Schedule(sim.Millisecond, func() {
		if q.InFlight() != 0 || q.Pending() != 0 {
			t.Fatal("queue not idle at switch time")
		}
		if log.Count("dom0", obs.DecAnticArm) != 1 {
			t.Fatal("setup: anticipation did not arm before the switch")
		}
		q.SetElevator(NewNoop(p), 50*sim.Millisecond, func() { switched = true })
	})
	eng.Run()

	if !switched {
		t.Fatal("switch did not finish")
	}
	if n := log.Count("dom0", obs.DecAnticTimeout); n != 0 {
		t.Fatalf("%d phantom antic.timeout decisions recorded by the retired elevator", n)
	}
	if as.stats.Timeouts != 0 {
		t.Fatalf("retired AS accumulated %d timeouts post-drain", as.stats.Timeouts)
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("%d leaked events (stale wake timers outliving the switch)", got)
	}
}

func TestNoPhantomCFQExpireAcrossSwitch(t *testing.T) {
	p := DefaultParams()
	log := obs.NewDecisionLog()
	p.Decisions = obs.NewDecisionRecorder(obs.Sink{Decisions: log}, 1, obs.TIDDom0, "dom0")
	cfq := NewCFQ(p)
	eng, q := liveSwitchQueue(cfq)

	// One sync read: CFQ grants stream 1 a slice; the completion arms the
	// 8ms slice_idle window and the queue's wake timer.
	q.Submit(req(block.Read, 100, 1))

	switched := false
	eng.Schedule(sim.Millisecond, func() {
		if q.InFlight() != 0 || q.Pending() != 0 {
			t.Fatal("queue not idle at switch time")
		}
		if log.Count("dom0", obs.DecCFQIdle) != 1 {
			t.Fatal("setup: slice idle did not arm before the switch")
		}
		q.SetElevator(NewNoop(p), 50*sim.Millisecond, func() { switched = true })
	})
	eng.Run()

	if !switched {
		t.Fatal("switch did not finish")
	}
	if n := log.Count("dom0", obs.DecCFQExpire); n != 0 {
		t.Fatalf("%d phantom cfq.expire decisions recorded by the retired elevator", n)
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("%d leaked events (stale idle timers outliving the switch)", got)
	}
}

// TestSwitchDuringAnticipationDrainsInFlight pins that the fix never
// starves a drain that still has queued work: a switch issued while AS
// anticipates over a non-empty queue must still dispatch the queued
// requests (after the anticipation timeout fires, as on real hardware)
// and finish the switch.
func TestSwitchDuringAnticipationDrainsInFlight(t *testing.T) {
	p := DefaultParams()
	as := NewAnticipatory(p)
	eng, q := liveSwitchQueue(as)
	_ = as

	// Stream 1 read completes and arms anticipation; stream 2's read is
	// queued behind the anticipation window.
	q.Submit(req(block.Read, 100, 1))
	eng.Schedule(500*sim.Microsecond, func() {
		q.Submit(req(block.Read, 1<<20, 2))
	})

	completed := 0
	q.OnComplete(func(*block.Request) { completed++ })

	switched := false
	eng.Schedule(sim.Millisecond, func() {
		q.SetElevator(NewNoop(p), 5*sim.Millisecond, func() { switched = true })
	})
	eng.Run()

	if !switched {
		t.Fatal("switch never finished: drain starved")
	}
	if completed != 2 {
		t.Fatalf("completed %d requests, want 2 (stream 2's read must drain)", completed)
	}
	if q.Pending() != 0 || q.InFlight() != 0 {
		t.Fatal("requests stranded across the switch")
	}
}
