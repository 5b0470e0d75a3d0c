package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the old container/heap binary-heap calendar, kept here as the
// reference oracle for the indexed 4-ary replacement.
type refEvent struct {
	at  Time
	seq uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestCalendarMatchesBinaryHeap drives 10k random timed inserts — with a
// deliberately small timestamp domain so equal timestamps are common —
// interleaved with pops and removals from arbitrary slots (what Cancel
// does), and asserts the 4-ary calendar pops in exactly the order the old
// binary heap did. Keys are unique thanks to seq, so the orders must be
// identical.
func TestCalendarMatchesBinaryHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 10000

	cal := &eventCalendar{}
	ref := &refHeap{}
	var seq uint64
	insert := func() {
		at := Time(rng.Intn(997)) // small domain => many duplicate timestamps
		cal.push(&Event{at: at, seq: seq, fn: func() {}})
		heap.Push(ref, refEvent{at: at, seq: seq})
		seq++
	}
	popBoth := func() {
		ev := cal.pop()
		want := heap.Pop(ref).(refEvent)
		if ev.at != want.at || ev.seq != want.seq {
			t.Fatalf("pop mismatch: got (at=%d seq=%d) want (at=%d seq=%d)",
				ev.at, ev.seq, want.at, want.seq)
		}
		if ev.index != -1 {
			t.Fatalf("popped event index = %d, want -1", ev.index)
		}
	}

	removeBoth := func() {
		ev := cal.a[rng.Intn(cal.len())]
		cal.remove(ev.index)
		if ev.index != -1 {
			t.Fatalf("removed event index = %d, want -1", ev.index)
		}
		for j, it := range *ref {
			if it.at == ev.at && it.seq == ev.seq {
				heap.Remove(ref, j)
				return
			}
		}
		t.Fatalf("removed event (at=%d seq=%d) missing from reference", ev.at, ev.seq)
	}

	// Interleave inserts, pops and removals so the heaps churn at many
	// sizes.
	for i := 0; i < n; i++ {
		insert()
		if cal.len() > 1 && rng.Intn(3) == 0 {
			popBoth()
		}
		if cal.len() > 1 && rng.Intn(5) == 0 {
			removeBoth()
		}
	}
	for cal.len() > 0 {
		popBoth()
	}
	if ref.Len() != 0 {
		t.Fatalf("reference heap has %d leftover events", ref.Len())
	}
}

// TestCalendarIndexInvariant checks that every event's index field points
// at its actual slot after arbitrary push/pop/remove churn — the property
// Cancel's in-place removal depends on. Pushes and shrinking operations
// are equally likely, so the heap random-walks several levels deep; the
// test asserts that it did, and that some removal refilled its hole by
// sifting up (which needs a hole at least two levels deep).
func TestCalendarIndexInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cal := &eventCalendar{}
	var seq uint64
	maxLen, upRemovals := 0, 0
	for i := 0; i < 2000; i++ {
		var out *Event
		switch k := rng.Intn(4); {
		case cal.len() == 0 || k < 2:
			cal.push(&Event{at: Time(rng.Intn(50)), seq: seq, fn: func() {}})
			seq++
		case k == 2:
			out = cal.pop()
		default:
			j, n := rng.Intn(cal.len()), cal.len()-1
			if j > 0 && j < n && eventLess(cal.a[n], cal.a[(j-1)>>2]) {
				upRemovals++
			}
			out = cal.a[j]
			cal.remove(j)
		}
		if out != nil && out.index != -1 {
			t.Fatalf("after op %d: event out of the calendar has index %d", i, out.index)
		}
		for slot, ev := range cal.a {
			if ev.index != slot {
				t.Fatalf("after op %d: event at slot %d has index %d", i, slot, ev.index)
			}
		}
		maxLen = max(maxLen, cal.len())
	}
	if maxLen < 21 || upRemovals == 0 {
		t.Fatalf("churn too shallow: max len %d (want >= 21, three full levels), %d sift-up removals (want > 0)", maxLen, upRemovals)
	}
}

// TestPendingInterleavedCancelStepRun regression-tests cancelled-event
// accounting across Step, Run and RunUntil.
func TestPendingInterleavedCancelStepRun(t *testing.T) {
	e := New(1)
	noop := func() {}

	evs := make([]*Event, 0, 8)
	for i := 0; i < 8; i++ {
		evs = append(evs, e.Schedule(Duration(i+1)*Millisecond, noop))
	}
	if got := e.Pending(); got != 8 {
		t.Fatalf("Pending = %d, want 8", got)
	}

	// Cancel two; double-cancel one of them (must not double-count).
	evs[0].Cancel()
	evs[0].Cancel()
	evs[3].Cancel()
	if got := e.Pending(); got != 6 {
		t.Fatalf("after cancels Pending = %d, want 6", got)
	}

	// Step fires the first runnable event (evs[1]); the cancelled evs[0]
	// already left the calendar.
	if !e.Step() {
		t.Fatal("Step returned false with runnable events pending")
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("after Step Pending = %d, want 5", got)
	}

	// RunUntil through evs[4]'s timestamp fires evs[2] and evs[4].
	e.RunUntil(Time(5 * Millisecond))
	if got := e.Pending(); got != 3 {
		t.Fatalf("after RunUntil Pending = %d, want 3", got)
	}

	// Cancel one of the remainder mid-flight from inside a callback.
	e.Schedule(Millisecond, func() { evs[7].Cancel() })
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("after Run Pending = %d, want 0", got)
	}
	// Fired: evs[1,2,4,5,6] plus the canceller; evs[0,3,7] were cancelled.
	if e.EventsFired() != 6 {
		t.Fatalf("EventsFired = %d, want 6", e.EventsFired())
	}
}

// TestEventPoolingReusesAndResets verifies fired events are recycled and
// fully reset on reuse, and that disabling pooling stops recycling.
func TestEventPoolingReusesAndResets(t *testing.T) {
	e := New(1)
	first := e.Schedule(Millisecond, func() {})
	e.Run()
	if len(e.free) != 1 {
		t.Fatalf("freelist len = %d after one fired event, want 1", len(e.free))
	}
	second := e.Schedule(2*Millisecond, func() {})
	if second != first {
		t.Fatal("pooled engine did not reuse the fired event")
	}
	if second.At() != Time(3*Millisecond) {
		t.Fatalf("recycled event At = %v, want 3ms", second.At())
	}
	e.Run()

	// Cancelled events are recycled at once: the Schedule call drains the
	// freelist, the Cancel refills it before anything runs.
	ev := e.Schedule(Millisecond, func() {})
	if len(e.free) != 0 {
		t.Fatalf("freelist len = %d after reuse, want 0", len(e.free))
	}
	ev.Cancel()
	if len(e.free) != 1 || e.Pending() != 0 {
		t.Fatalf("freelist len = %d, pending = %d after cancel, want 1 and 0", len(e.free), e.Pending())
	}
	if again := e.Schedule(Millisecond, func() {}); again != ev {
		t.Fatal("pooled engine did not reuse the cancelled event")
	}
	e.Run()

	e.pooling = false
	e.free = nil
	a := e.Schedule(Millisecond, func() {})
	e.Run()
	b := e.Schedule(Millisecond, func() {})
	if a == b {
		t.Fatal("pooling disabled but event was reused")
	}
}

// TestPoolingIdenticalTrace runs the same randomized workload with pooling
// on and off and requires the identical fire sequence.
func TestPoolingIdenticalTrace(t *testing.T) {
	run := func(pool bool) []Time {
		e := New(99)
		e.pooling = pool
		var fired []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 6 {
				return
			}
			k := e.Rand().Intn(3)
			for i := 0; i < k; i++ {
				d := Duration(e.Rand().Intn(1000)) * Microsecond
				var ev *Event
				ev = e.Schedule(d, func() {
					fired = append(fired, e.Now())
					_ = ev
					spawn(depth + 1)
				})
				if e.Rand().Intn(10) == 0 {
					ev.Cancel()
				}
			}
		}
		for i := 0; i < 20; i++ {
			spawn(0)
		}
		e.Run()
		return fired
	}
	on, off := run(true), run(false)
	if len(on) != len(off) {
		t.Fatalf("fire counts differ: pooled %d vs unpooled %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("fire %d: pooled at %v, unpooled at %v", i, on[i], off[i])
		}
	}
}

func BenchmarkEngineChurn(b *testing.B) {
	for _, pool := range []bool{true, false} {
		name := "pooled"
		if !pool {
			name = "unpooled"
		}
		b.Run(name, func(b *testing.B) {
			e := New(1)
			e.pooling = pool
			var tick func()
			n := 0
			tick = func() {
				n++
				if n < b.N {
					e.Schedule(Microsecond, tick)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Schedule(Microsecond, tick)
			e.Run()
		})
	}
}
