package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOWithinSameTimestamp(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run", e.Pending())
	}
}

func TestCancelDuringRun(t *testing.T) {
	e := New(1)
	var second *Event
	fired := false
	e.Schedule(5, func() { second.Cancel() })
	second = e.Schedule(10, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("clock = %v, want 99", e.Now())
	}
}

func TestAtInPastFiresNow(t *testing.T) {
	e := New(1)
	e.Schedule(50, func() {
		e.At(10, func() {
			if e.Now() != 50 {
				t.Errorf("past event fired at %v, want 50", e.Now())
			}
		})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var got []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(got))
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("fired %d events total, want 4", len(got))
	}
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	e := New(1)
	ev := e.Schedule(10, func() { t.Error("cancelled fired") })
	ev.Cancel()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("n = %d after Stop, want 1", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Fatalf("n = %d after resume, want 2", n)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New(1)
	if e.Step() {
		t.Fatal("Step on empty calendar returned true")
	}
	e.Schedule(1, func() {})
	if !e.Step() {
		t.Fatal("Step with pending event returned false")
	}
}

func TestEventsFiredCounter(t *testing.T) {
	e := New(1)
	for i := 0; i < 5; i++ {
		e.Schedule(Duration(i), func() {})
	}
	e.Run()
	if e.EventsFired() != 5 {
		t.Fatalf("EventsFired = %d, want 5", e.EventsFired())
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil callback")
		}
	}()
	New(1).Schedule(1, nil)
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(-5, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, e.Now())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v", Second.Seconds())
	}
	if Millisecond.Millis() != 1.0 {
		t.Fatalf("Millisecond.Millis() = %v", Millisecond.Millis())
	}
	if DurationFromSeconds(2.5) != 2500*Millisecond {
		t.Fatalf("DurationFromSeconds(2.5) = %v", DurationFromSeconds(2.5))
	}
	tm := Time(0).Add(3 * Second)
	if tm.Seconds() != 3.0 {
		t.Fatalf("Time.Seconds = %v", tm.Seconds())
	}
	if tm.Sub(Time(Second)) != 2*Second {
		t.Fatalf("Time.Sub = %v", tm.Sub(Time(Second)))
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order and all fire exactly once.
func TestQuickEventOrdering(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := New(seed)
		rng := rand.New(rand.NewSource(seed))
		var fired []Time
		want := make([]int, len(raw))
		for i, r := range raw {
			d := Duration(r)
			if rng.Intn(2) == 0 {
				d = Duration(rng.Intn(1000))
			}
			want[i] = int(d)
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		sort.Ints(want)
		for i, ts := range fired {
			if i > 0 && ts < fired[i-1] {
				return false
			}
			if int(ts) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingSkipsCancelled pins the satellite fix: Pending must not count
// events that were cancelled while still sitting in the heap.
func TestPendingSkipsCancelled(t *testing.T) {
	e := New(1)
	evs := make([]*Event, 4)
	for i := range evs {
		evs[i] = e.Schedule(Duration(10*(i+1)), func() {})
	}
	if e.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", e.Pending())
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if e.Pending() != 2 {
		t.Fatalf("pending = %d after two cancels, want 2", e.Pending())
	}
	evs[1].Cancel() // double-cancel must not double-count
	if e.Pending() != 2 {
		t.Fatalf("pending = %d after double cancel, want 2", e.Pending())
	}
	e.Step() // fires evs[0], pops nothing cancelled
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after first fire, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run, want 0", e.Pending())
	}
}

// TestObserverSeesEveryFiredEvent checks the Observer hook fires once per
// executed (non-cancelled) event, at the event's own timestamp.
func TestObserverSeesEveryFiredEvent(t *testing.T) {
	e := New(1)
	var seen []Time
	e.SetObserver(observerFunc(func(at Time) { seen = append(seen, at) }))
	e.Schedule(10, func() {})
	cancelled := e.Schedule(20, func() {})
	cancelled.Cancel()
	e.Schedule(30, func() {})
	e.Run()
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 30 {
		t.Fatalf("observer saw %v, want [10 30]", seen)
	}
}

type observerFunc func(at Time)

func (f observerFunc) EventFired(at Time) { f(at) }
