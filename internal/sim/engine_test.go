package sim

import (
	"math"
	"math/rand"
	"slices"
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

// TestScheduleOverflowPanics pins the clock's end: a delay that carries
// the clock past int64 panics, on the calendar and on a lane, instead of
// wrapping into the past and firing at once.
func TestScheduleOverflowPanics(t *testing.T) {
	for name, schedule := range map[string]func(*Engine){
		"calendar": func(e *Engine) { e.Schedule(100, func() {}) },
		"lane":     func(e *Engine) { e.Lane(100).Schedule(func() {}) },
	} {
		e := New(1)
		e.At(math.MaxInt64-10, func() {})
		e.Run()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a delay of 100 ns at %v did not panic", name, e.Now())
				}
			}()
			schedule(e)
		}()
		e.Schedule(10, func() {}) // the clock's last nanosecond is fine
		e.Run()
		if e.Now() != math.MaxInt64 {
			t.Errorf("%s: clock at %v, want its last nanosecond", name, e.Now())
		}
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

// TestWatchersStopWithTheModel pins Engine.Watch: watchers fire on their
// period while other events are pending, discount one another, and stop
// once only watchers remain, so two of them never keep a drained
// simulation alive. A watcher fires at least once, at first, even with
// nothing else pending.
func TestWatchersStopWithTheModel(t *testing.T) {
	e := New(1)
	// The model: a chain of events, one per second, on the calendar and
	// on a lane, ending at 10 s.
	var step func()
	n := 0
	step = func() {
		if n++; n < 10 {
			if n%2 == 0 {
				e.Lane(Second).Schedule(step)
			} else {
				e.Schedule(Second, step)
			}
		}
	}
	e.Schedule(0, step)
	var fast, slow []Time
	e.Watch(0, 250*Millisecond, func() { fast = append(fast, e.Now()) })
	e.Watch(Second, 3*Second, func() { slow = append(slow, e.Now()) })
	e.Run()
	// The model's last event fires at 9 s: the fast watcher fires
	// through it (37 times, 0 to 9 s); the slow one fires at 1, 4 and 7 s
	// and once more at 10 s, where it finds nothing else pending and
	// stops.
	if len(fast) != 37 || fast[len(fast)-1] != Time(9*Second) {
		t.Fatalf("fast watcher fired %d times, last at %v; want 37, last at 9s", len(fast), fast[len(fast)-1])
	}
	if want := []Time{Time(Second), Time(4 * Second), Time(7 * Second), Time(10 * Second)}; !slices.Equal(slow, want) {
		t.Fatalf("slow watcher fired at %v, want %v", slow, want)
	}
	if e.Pending() != 0 || e.watches != 0 {
		t.Fatalf("pending = %d with %d watches after the run, want 0 and 0", e.Pending(), e.watches)
	}

	lone := New(1)
	fired := 0
	lone.Watch(5, 5, func() { fired++ })
	lone.Run()
	if fired != 1 || lone.Now() != 5 {
		t.Fatalf("a watcher alone fired %d times by %v, want once at 5", fired, lone.Now())
	}
}
