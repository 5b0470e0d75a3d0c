// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components in adaptmr (disks, elevators, VCPUs, network
// links, Hadoop tasks) are driven by a single Engine. Time is an int64
// nanosecond counter, events are ordered by (time, insertion sequence) so
// that runs are fully reproducible for a given seed.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is an absolute simulation timestamp in nanoseconds since Start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds converts a duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis converts a duration to floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// DurationFromSeconds converts floating-point seconds to a Duration.
func DurationFromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Seconds converts an absolute time to floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add offsets a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Event is a scheduled callback. It may be cancelled before it fires.
//
// A handle is dead once its event fires or is cancelled: the engine
// recycles the Event after its callback returns, and at once on Cancel, so
// a later Schedule may hand the same pointer out again. Drop the handle
// inside the callback, and nil or overwrite it right after cancelling
// (cancel-before-replace when rescheduling). Every holder in this
// repository follows that discipline.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	eng   *Engine
	index int // calendar index, -1 once popped or removed
}

// At returns the time the event is scheduled to fire.
func (ev *Event) At() Time { return ev.at }

// Cancel prevents the event from firing, removing it from the calendar
// in O(log n) and recycling it at once. Cancelling an event that has left
// the calendar (cancelled already, or from inside its own callback) is a
// no-op.
func (ev *Event) Cancel() {
	if ev.index >= 0 {
		ev.eng.events.remove(ev.index)
		ev.eng.release(ev)
	}
}

// eventLess orders the calendar: by firing time, then by insertion sequence
// so same-timestamp events fire FIFO. seq is unique per engine, making this
// a strict total order — any correct heap yields the same pop sequence.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventCalendar is an indexed 4-ary min-heap over events. Compared to the
// previous container/heap binary heap it removes the heap.Interface
// indirection and `any` boxing on every push/pop, performs the (at, seq)
// comparison inline, and halves the tree depth — siblings share a cache
// line of the backing slice, so sift-down touches fewer lines per level.
// Each event carries its slot index so Cancel can remove it in O(log n).
type eventCalendar struct {
	a []*Event
}

func (h *eventCalendar) len() int { return len(h.a) }

// push inserts ev, maintaining the heap order and slot indexes.
func (h *eventCalendar) push(ev *Event) {
	h.a = append(h.a, nil)
	h.siftUp(len(h.a)-1, ev)
}

// pop removes and returns the minimum event, marking it out-of-calendar.
func (h *eventCalendar) pop() *Event {
	top := h.a[0]
	h.remove(0)
	return top
}

// remove takes the event at slot i out of the calendar, marking it
// out-of-calendar. The former last entry fills the hole and sifts up or
// down from there.
func (h *eventCalendar) remove(i int) {
	ev := h.a[i]
	n := len(h.a) - 1
	last := h.a[n]
	h.a[n] = nil
	h.a = h.a[:n]
	if i < n {
		if i > 0 && eventLess(last, h.a[(i-1)>>2]) {
			h.siftUp(i, last)
		} else {
			h.siftDown(i, last)
		}
	}
	ev.index = -1
}

// siftUp places ev starting from hole i, walking toward the root.
func (h *eventCalendar) siftUp(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) >> 2
		par := h.a[p]
		if !eventLess(ev, par) {
			break
		}
		h.a[i] = par
		par.index = i
		i = p
	}
	h.a[i] = ev
	ev.index = i
}

// siftDown places ev starting from hole i, walking toward the leaves.
func (h *eventCalendar) siftDown(i int, ev *Event) {
	a := h.a
	n := len(a)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		best := a[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(a[j], best) {
				m, best = j, a[j]
			}
		}
		if !eventLess(best, ev) {
			break
		}
		a[i] = best
		best.index = i
		i = m
	}
	a[i] = ev
	ev.index = i
}

// Observer receives a callback for every event the engine fires — the
// hook the observability layer's simulator metrics ride on. A nil
// observer costs one predictable branch per event.
type Observer interface {
	// EventFired is invoked after the clock advanced to the event's
	// timestamp, immediately before the event callback runs.
	EventFired(at Time)
}

// Engine is a single-threaded discrete-event simulator.
//
// Engine is not safe for concurrent use; all model code runs inside event
// callbacks on the caller's goroutine.
type Engine struct {
	now     Time
	seq     uint64
	events  eventCalendar
	rng     *rand.Rand
	stopped bool
	fired   uint64

	// free is the event freelist; fired and cancelled events return here
	// and are reset on reuse by At. pooling is always true outside the
	// package's own tests, which switch it off as an unpooled reference.
	free    []*Event
	pooling bool

	obs Observer
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), pooling: true}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsFired returns the number of events executed so far (useful for
// benchmarking the simulator itself).
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of runnable events currently scheduled.
func (e *Engine) Pending() int { return e.events.len() }

// SetObserver installs (or, with nil, removes) the engine's execution
// observer.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// release returns a finished (fired or cancelled) event to the
// freelist. The callback reference is dropped so the freelist never roots
// captured state.
func (e *Engine) release(ev *Event) {
	if !e.pooling {
		return
	}
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Schedule runs fn after delay d. A negative delay is treated as zero.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at absolute time t. Times in the past fire at the current time.
func (e *Engine) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < e.now {
		t = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at = t
		ev.seq = e.seq
		ev.fn = fn
		ev.eng = e
	} else {
		ev = &Event{at: t, seq: e.seq, fn: fn, eng: e}
	}
	e.seq++
	e.events.push(ev)
	return ev
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event. It reports false when no runnable
// event remains.
func (e *Engine) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	e.fired++
	if e.obs != nil {
		e.obs.EventFired(ev.at)
	}
	// Recycle before firing is unsafe (the callback may reschedule into
	// this slot while a holder still points here); recycle after is safe
	// because holders drop their handles inside the callback.
	ev.fn()
	e.release(ev)
	return true
}

// Run executes events until the calendar is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && e.events.len() > 0 && e.events.a[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
