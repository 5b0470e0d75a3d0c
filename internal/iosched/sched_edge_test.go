package iosched

import (
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

func TestDeadlineBatchContinuesFromLastPosition(t *testing.T) {
	eng := sim.New(1)
	s := NewDeadline(DefaultParams())
	// Dispatch one read at 1000, then add reads on both sides: the scan
	// must continue upward, not jump backwards.
	s.Add(req(block.Read, 1000, 1), eng.Now())
	first, _ := s.Dispatch(eng.Now())
	if first.Sector != 1000 {
		t.Fatal("setup")
	}
	s.Completed(first, eng.Now())
	s.Add(req(block.Read, 100, 1), eng.Now())
	s.Add(req(block.Read, 2000, 1), eng.Now())
	next, _ := s.Dispatch(eng.Now())
	if next.Sector != 2000 {
		t.Fatalf("scan jumped backwards to %d", next.Sector)
	}
}

func TestDeadlineWriteOnlyWorkload(t *testing.T) {
	eng := sim.New(1)
	s := NewDeadline(DefaultParams())
	for _, sec := range []int64{900, 100, 500} {
		s.Add(block.NewRequest(block.Write, sec, 8, false, 1), eng.Now())
	}
	got := drain(t, s, eng)
	if got[0].Sector != 100 || got[1].Sector != 500 || got[2].Sector != 900 {
		t.Fatalf("writes not sorted: %v", got)
	}
}

func TestAnticipatoryBatchAlternation(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	p.AnticExpire = 0 // isolate batching from anticipation
	s := NewAnticipatory(p)
	// Saturated reads and writes: reads must dominate dispatch counts
	// roughly by the batch-time ratio (500ms vs 125ms).
	reads, writes := 0, 0
	nextR, nextW := int64(0), int64(1<<30)
	for i := 0; i < 400; i++ {
		s.Add(req(block.Read, nextR, 1), eng.Now())
		nextR += 8
		s.Add(block.NewRequest(block.Write, nextW, 8, false, 2), eng.Now())
		nextW += 8
		r, wake := s.Dispatch(eng.Now())
		if r == nil {
			if wake > eng.Now() {
				eng.RunUntil(wake)
				continue
			}
			t.Fatal("stall")
		}
		if r.Op == block.Read {
			reads++
		} else {
			writes++
		}
		s.Completed(r, eng.Now())
		// Advance ~10ms per request so batch clocks matter.
		eng.RunUntil(eng.Now().Add(10 * sim.Millisecond))
	}
	if reads <= writes {
		t.Fatalf("reads %d not favoured over writes %d", reads, writes)
	}
	if writes == 0 {
		t.Fatal("writes fully starved despite write batches")
	}
}

func TestCFQSliceExpiryRotates(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewCFQ(p)
	// Stream 1 has endless work; stream 2 waits. After stream 1's slice
	// expires, stream 2 must get service.
	next := int64(0)
	add1 := func() {
		s.Add(req(block.Read, next, 1), eng.Now())
		next += 1000
	}
	add1()
	s.Add(req(block.Read, 1<<30, 2), eng.Now())
	served2 := false
	for i := 0; i < 200 && !served2; i++ {
		add1()
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall")
		}
		if r.Stream == 2 {
			served2 = true
		}
		s.Completed(r, eng.Now())
		eng.RunUntil(eng.Now().Add(5 * sim.Millisecond))
	}
	if !served2 {
		t.Fatal("slice never expired; stream 2 starved")
	}
}

func TestMergerKeepsStreamsSeparate(t *testing.T) {
	m := newMerger(1024)
	a := block.NewRequest(block.Write, 100, 8, false, 1)
	m.mergeOrAdd(a)
	// Adjacent extent from a different stream must not merge.
	b := block.NewRequest(block.Write, 108, 8, false, 2)
	if m.mergeOrAdd(b) != nil {
		t.Fatal("cross-stream merge")
	}
	// Adjacent extent with different sync class must not merge.
	c := block.NewRequest(block.Write, 108, 8, true, 1)
	if m.mergeOrAdd(c) != nil {
		t.Fatal("sync/async merge")
	}
}

func TestNoopEmptyDispatch(t *testing.T) {
	eng := sim.New(1)
	s := NewNoop(DefaultParams())
	r, wake := s.Dispatch(eng.Now())
	if r != nil || wake != 0 {
		t.Fatalf("empty dispatch returned %v %v", r, wake)
	}
	if s.Pending() != 0 {
		t.Fatal("pending on empty scheduler")
	}
}

func TestSchedulersReportPending(t *testing.T) {
	eng := sim.New(1)
	for _, name := range Names {
		s := MustNew(name, DefaultParams())
		for i := 0; i < 5; i++ {
			s.Add(req(block.Read, int64(i*1000), block.StreamID(i)), eng.Now())
		}
		if s.Pending() != 5 {
			t.Fatalf("%s pending %d", name, s.Pending())
		}
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatalf("%s refused to dispatch", name)
		}
		if s.Pending() != 4 {
			t.Fatalf("%s pending after dispatch %d", name, s.Pending())
		}
	}
}

// ---------------------------------------------------------------------------
// Front-merge sort-order regression
// ---------------------------------------------------------------------------

// ascending fails the test if the sorted list's start sectors are not
// non-decreasing — the invariant every binary search in insert/next/remove
// depends on.
func ascending(t *testing.T, name string, l *sortedList) {
	t.Helper()
	for i := 1; i < len(l.reqs); i++ {
		if l.reqs[i-1].Sector > l.reqs[i].Sector {
			t.Fatalf("%s: sorted list out of order at %d: %d > %d",
				name, i, l.reqs[i-1].Sector, l.reqs[i].Sector)
		}
	}
}

// TestFrontMergeKeepsSortOrder pins the front-merge repair: a front merge
// moves the grown request's start sector backwards, which silently broke
// the sorted list's ascending invariant until the merge path started
// calling refresh. The scenario needs a third request whose sector falls
// between the merged extent's new and old start — overlapping extents from
// a different stream do exactly that.
func TestFrontMergeKeepsSortOrder(t *testing.T) {
	eng := sim.New(1)

	add := func(s block.Elevator, reqs ...*block.Request) {
		for _, r := range reqs {
			s.Add(r, eng.Now())
		}
	}
	// Stream 1 owns [1000,1008); stream 2's read at 996 sits between the
	// post-merge start (992) and the pre-merge start (1000). The incoming
	// [992,1000) front-merges into stream 1's request, moving it to 992.
	mk := func() []*block.Request {
		return []*block.Request{
			block.NewRequest(block.Read, 1000, 8, true, 1),
			block.NewRequest(block.Read, 996, 8, true, 2),
			block.NewRequest(block.Read, 992, 8, true, 1), // front-merges
		}
	}

	t.Run("deadline", func(t *testing.T) {
		s := NewDeadline(DefaultParams())
		add(s, mk()...)
		if s.Pending() != 2 {
			t.Fatalf("front merge did not happen: pending %d", s.Pending())
		}
		ascending(t, "deadline", &s.sorted[block.Read])
	})
	t.Run("anticipatory", func(t *testing.T) {
		s := NewAnticipatory(DefaultParams())
		add(s, mk()...)
		if s.Pending() != 2 {
			t.Fatalf("front merge did not happen: pending %d", s.Pending())
		}
		ascending(t, "anticipatory", &s.sorted[block.Read])
	})
	t.Run("cfq", func(t *testing.T) {
		s := NewCFQ(DefaultParams())
		add(s, mk()...)
		if s.Pending() != 2 {
			t.Fatalf("front merge did not happen: pending %d", s.Pending())
		}
		// Stream 2's queue holds one request; stream 1's queue must have
		// re-sorted after its request's start moved to 992.
		ascending(t, "cfq", &s.queues[1].list)
	})
}

// ---------------------------------------------------------------------------
// CFQ edge cases
// ---------------------------------------------------------------------------

// TestCFQNoResumeExpiredSliceOnIdleReturn pins the idle-return fix: when
// the stream CFQ idled for comes back after its slice clock already ran
// out, the stale slice must be expired, not resumed — the stream competes
// for a fresh slice through the round-robin ring like everybody else.
func TestCFQNoResumeExpiredSliceOnIdleReturn(t *testing.T) {
	p := DefaultParams()
	s := NewCFQ(p)
	t0 := sim.Time(0)

	s.Add(req(block.Read, 100, 1), t0)
	r, _ := s.Dispatch(t0) // slice for stream 1: [0, 100ms)
	if r == nil || r.Stream != 1 {
		t.Fatal("setup: expected stream 1 dispatch")
	}
	// Complete just inside the slice: queue empty, idling arms.
	tDone := t0.Add(99 * sim.Millisecond)
	s.Completed(r, tDone)
	if !s.idling {
		t.Fatal("setup: idle window did not arm")
	}

	// The stream returns long after the slice expired.
	tLate := t0.Add(150 * sim.Millisecond)
	s.Add(req(block.Read, 108, 1), tLate)
	if s.active != nil || s.idling {
		t.Fatalf("stale slice resumed: active=%v idling=%v", s.active, s.idling)
	}
	// The next dispatch grants a fresh slice ending relative to tLate.
	r2, _ := s.Dispatch(tLate)
	if r2 == nil || r2.Stream != 1 {
		t.Fatal("stream 1 should win a fresh slice")
	}
	if s.sliceEnd != tLate.Add(p.SliceSync) {
		t.Fatalf("slice end %v not re-armed from %v", s.sliceEnd, tLate)
	}
}

// TestCFQIdleReturnWithinSliceResumes pins the complementary case: a
// stream returning inside its slice keeps it (that is the entire point of
// slice_idle) instead of being bounced through the ring.
func TestCFQIdleReturnWithinSliceResumes(t *testing.T) {
	s := NewCFQ(DefaultParams())
	t0 := sim.Time(0)

	s.Add(req(block.Read, 100, 1), t0)
	r, _ := s.Dispatch(t0)
	s.Completed(r, t0.Add(2*sim.Millisecond))
	if !s.idling {
		t.Fatal("setup: idle window did not arm")
	}
	tBack := t0.Add(4 * sim.Millisecond) // inside both idle window and slice
	s.Add(req(block.Read, 108, 1), tBack)
	if s.active == nil || s.active.stream != 1 || s.idling {
		t.Fatal("slice should resume for the returning stream")
	}
	r2, _ := s.Dispatch(tBack)
	if r2 == nil || r2.Sector != 108 {
		t.Fatalf("resumed slice should serve the new request, got %v", r2)
	}
}

// TestCFQAsyncStarvedResetWhenIdle pins the stale-debt fix: asyncStarved
// accumulates only while async work is actually waiting. Once the async
// queue drains, leftover debt must be voided — otherwise a later async
// burst inherits it and preempts sync queues the moment it arrives.
func TestCFQAsyncStarvedResetWhenIdle(t *testing.T) {
	p := DefaultParams()
	s := NewCFQ(p)
	now := sim.Time(0)

	// Simulate stale debt from an earlier async period that has drained.
	s.asyncStarved = 16

	// Sync-only dispatch with no async pending: the debt must be voided.
	s.Add(req(block.Read, 100, 1), now)
	r, _ := s.Dispatch(now)
	if r == nil || !r.IsSyncFull() {
		t.Fatal("setup: sync dispatch expected")
	}
	if s.asyncStarved != 0 {
		t.Fatalf("stale async debt survived: %d", s.asyncStarved)
	}
	s.Completed(r, now)

	// A fresh async burst arrives alongside sync work from another stream;
	// with the debt voided, sync must still be preferred.
	now = now.Add(p.SliceSync + p.SliceIdle) // expire the slice and idle window
	s.Add(block.NewRequest(block.Write, 5000, 8, false, 3), now)
	s.Add(req(block.Read, 200, 2), now)
	r2, _ := s.Dispatch(now)
	if r2 == nil || !r2.IsSyncFull() {
		t.Fatalf("async burst jumped ahead of sync on arrival: got %v", r2)
	}
}

// TestCFQNoDuplicateQueuesOnRing hammers the round-robin ring with
// interleaved multi-stream sync and async traffic across slice expiries
// and queue-drain/refill cycles, asserting after every step that no queue
// appears on the ring twice. nextQueue re-appends a selected queue exactly
// once and Add checks onRR before appending; a duplicate would let one
// stream take two slices per rotation.
func TestCFQNoDuplicateQueuesOnRing(t *testing.T) {
	s := NewCFQ(DefaultParams())
	now := sim.Time(0)

	noDup := func(step int) {
		seen := make(map[*cfqQueue]bool, len(s.rr)-s.rrHead)
		for _, q := range s.rr[s.rrHead:] {
			if seen[q] {
				t.Fatalf("step %d: queue for stream %d appears on ring twice", step, q.stream)
			}
			seen[q] = true
		}
	}

	sector := int64(0)
	var inflight []*block.Request
	for i := 0; i < 300; i++ {
		switch i % 5 {
		case 0, 1, 2:
			sector += 64
			s.Add(req(block.Read, sector, block.StreamID(i%3+1)), now)
		case 3:
			sector += 64
			s.Add(block.NewRequest(block.Write, sector, 8, false, block.StreamID(i%3+1)), now)
		case 4:
			// Drain a little, completing everything dispatched so far.
			for j := 0; j < 2; j++ {
				r, wake := s.Dispatch(now)
				if r == nil {
					if wake > now {
						now = wake
					}
					continue
				}
				inflight = append(inflight, r)
			}
			for _, r := range inflight {
				s.Completed(r, now)
			}
			inflight = inflight[:0]
			noDup(i)
		}
		noDup(i)
		// Jump the clock across slice boundaries every few steps to force
		// expiries and fresh queue selection.
		if i%7 == 0 {
			now = now.Add(30 * sim.Millisecond)
		}
	}
	// Drain fully; the ring must stay duplicate-free to the end.
	for guard := 0; s.Pending() > 0; guard++ {
		if guard > 10000 {
			t.Fatal("cfq did not drain")
		}
		r, wake := s.Dispatch(now)
		if r == nil {
			if wake <= now {
				t.Fatalf("cfq stalled with %d pending", s.Pending())
			}
			now = wake
			continue
		}
		s.Completed(r, now)
		noDup(guard)
	}
}
