package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// laneDelays are the lanes the differential programs schedule on: a zero
// delay, a delay heap events also draw, and one only lanes use.
var laneDelays = []Duration{0, 5, 11}

// heapDelays are the delays the programs' calendar events draw from.
var heapDelays = []Duration{0, 1, 2, 3, 5, 8}

// firing is one fired event: its time, its id and what Pending read
// inside its callback.
type firing struct {
	at      Time
	id      int
	pending int
}

type liveEvent struct {
	id int
	ev *Event
}

// laneWorld runs one random program on one engine. The program's
// randomness is consumed as it runs, so two worlds with the same seed stay
// in lockstep exactly as long as their engines fire the same events in the
// same order.
type laneWorld struct {
	e      *Engine
	rng    *rand.Rand
	onLane func(k int, fn func())
	live   []liveEvent // cancellable handles, in scheduling order
	fired  []firing
	nextID int
	budget int // schedules left, so callbacks cannot spawn forever
	// wrapped counts lane schedules that found their ring full with its
	// head past slot 0, so that growing had to unwrap it.
	wrapped int
}

// newLaneWorld returns a world whose lane schedules go to real lanes, or,
// as the reference, to ordinary Schedule calls at the lane's delay.
func newLaneWorld(seed int64, lanes bool) *laneWorld {
	w := &laneWorld{e: New(1), rng: rand.New(rand.NewSource(seed)), budget: 600}
	if lanes {
		ls := make([]*Lane, len(laneDelays))
		for k, d := range laneDelays {
			ls[k] = w.e.Lane(d)
		}
		w.onLane = func(k int, fn func()) {
			if l := ls[k]; l.n == len(l.buf) && l.head != 0 {
				w.wrapped++
			}
			ls[k].Schedule(fn)
		}
	} else {
		w.onLane = func(k int, fn func()) { w.e.Schedule(laneDelays[k], fn) }
	}
	return w
}

// callback returns the event body for id: it records the firing, drops
// the now-dead handle, and may run more of the program.
func (w *laneWorld) callback(id int) func() {
	return func() {
		w.fired = append(w.fired, firing{w.e.Now(), id, w.e.Pending()})
		for i, l := range w.live {
			if l.id == id {
				w.live = append(w.live[:i], w.live[i+1:]...)
				break
			}
		}
		for n := w.rng.Intn(3); n > 0; n-- {
			w.op()
		}
	}
}

// op performs one random program operation.
func (w *laneWorld) op() {
	if w.budget <= 0 {
		return
	}
	switch k := w.rng.Intn(10); {
	case k < 3:
		w.budget--
		id := w.nextID
		w.nextID++
		ev := w.e.Schedule(heapDelays[w.rng.Intn(len(heapDelays))], w.callback(id))
		w.live = append(w.live, liveEvent{id, ev})
	case k < 4:
		w.budget--
		id := w.nextID
		w.nextID++
		// At may name a time in the past, which fires at the current time.
		ev := w.e.At(w.e.Now().Add(Duration(w.rng.Intn(12)-3)), w.callback(id))
		w.live = append(w.live, liveEvent{id, ev})
	case k < 5:
		if len(w.live) > 0 {
			i := w.rng.Intn(len(w.live))
			w.live[i].ev.Cancel()
			w.live = append(w.live[:i], w.live[i+1:]...)
		}
	case k < 9:
		w.budget--
		id := w.nextID
		w.nextID++
		w.onLane(w.rng.Intn(len(laneDelays)), w.callback(id))
	default:
		// A burst on one lane, deep enough to make its ring grow, often
		// while earlier entries have already fired and the ring has
		// wrapped.
		lane := w.rng.Intn(len(laneDelays))
		for n := 1 + w.rng.Intn(24); n > 0 && w.budget > 0; n-- {
			w.budget--
			id := w.nextID
			w.nextID++
			w.onLane(lane, w.callback(id))
		}
	}
}

func (w *laneWorld) same(ref *laneWorld) error {
	if !slices.Equal(w.fired, ref.fired) {
		return fmt.Errorf("firing sequence differs:\nlanes %v\nheap  %v", w.fired, ref.fired)
	}
	if w.e.Now() != ref.e.Now() {
		return fmt.Errorf("Now = %v, reference %v", w.e.Now(), ref.e.Now())
	}
	if w.e.EventsFired() != ref.e.EventsFired() {
		return fmt.Errorf("EventsFired = %d, reference %d", w.e.EventsFired(), ref.e.EventsFired())
	}
	if w.e.Pending() != ref.e.Pending() {
		return fmt.Errorf("Pending = %d, reference %d", w.e.Pending(), ref.e.Pending())
	}
	return nil
}

// TestLanesMatchHeapCalendar runs random programs on an engine with lanes
// and on a reference engine that turns every lane schedule into an
// ordinary Schedule at the lane's delay. The programs mix Schedule, At and
// Cancel with schedules on three lanes, issue schedules from inside
// callbacks, and drive the engines with Run, Step and RunUntil; after
// every driving step both engines must have fired the same events at the
// same times, read the same Pending inside each callback, and agree on
// Now, EventsFired and Pending.
func TestLanesMatchHeapCalendar(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 200; seed++ {
		w, ref := newLaneWorld(seed, true), newLaneWorld(seed, false)
		drive := rand.New(rand.NewSource(-seed))
		for step := 0; step < 80; step++ {
			for n := drive.Intn(4); n > 0; n-- {
				w.op()
				ref.op()
			}
			switch k := drive.Intn(10); {
			case k < 6:
				if w.e.Step() != ref.e.Step() {
					t.Fatalf("seed %d, step %d: Step results differ", seed, step)
				}
			case k < 9:
				until := w.e.Now().Add(Duration(drive.Intn(20)))
				w.e.RunUntil(until)
				ref.e.RunUntil(until)
			default:
				w.e.Run()
				ref.e.Run()
			}
			if err := w.same(ref); err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, step, err)
			}
		}
		w.e.Run()
		ref.e.Run()
		if err := w.same(ref); err != nil {
			t.Fatalf("seed %d, final run: %v", seed, err)
		}
		wrapped += w.wrapped
	}
	if wrapped == 0 {
		t.Fatal("no lane grew while its ring was wrapped")
	}
}

// TestLaneSteadyStateZeroAlloc pins a warm lane at zero allocations: a
// cycle schedules a burst whose callbacks re-enter the same lane, as the
// ring's completion hop does, and runs it dry.
func TestLaneSteadyStateZeroAlloc(t *testing.T) {
	e := New(1)
	l := e.Lane(60 * Microsecond)
	hops := 0
	var hop func()
	hop = func() {
		if hops++; hops%2 == 1 {
			l.Schedule(hop)
		}
	}
	cycle := func() {
		for i := 0; i < 64; i++ {
			l.Schedule(hop)
		}
		e.Run()
	}
	cycle() // grow the ring
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("warm lane cycle allocates %v objects, want 0", a)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after the cycle ran dry", e.Pending())
	}
}

// TestRunUntilStopKeepsClockMonotonic pins RunUntil after Stop: the loop
// ends with an event at or before the target still pending, so the clock
// must stay at the last fired event rather than jump past the pending one
// and run backwards when it fires.
func TestRunUntilStopKeepsClockMonotonic(t *testing.T) {
	for _, onLane := range []bool{false, true} {
		e := New(1)
		l := e.Lane(Second)
		e.Schedule(Second, func() {
			if onLane {
				l.Schedule(func() {})
			}
			e.Stop()
		})
		if !onLane {
			e.Schedule(2*Second, func() {})
		}
		e.RunUntil(Time(5 * Second))
		if e.Now() != Time(Second) {
			t.Fatalf("lane %v: Now = %v after a stopped RunUntil, want 1s", onLane, e.Now())
		}
		e.Step()
		if e.Now() != Time(2*Second) {
			t.Fatalf("lane %v: Now = %v after the next Step, want 2s", onLane, e.Now())
		}
		// With nothing left at or before the target, RunUntil advances.
		e.RunUntil(Time(5 * Second))
		if e.Now() != Time(5*Second) || e.Pending() != 0 {
			t.Fatalf("lane %v: Now = %v, pending %d, want 5s and 0", onLane, e.Now(), e.Pending())
		}
	}
}
