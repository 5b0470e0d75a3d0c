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

// Lane is a FIFO of events scheduled at one fixed delay. The clock never
// runs backwards and the insertion sequence only grows, so events
// scheduled at a fixed delay arrive already in (time, sequence) order: a
// ring buffer holds them without the calendar's sift costs, and the
// engine fires its head only when it is the least pending event, so
// firing order is exactly what the calendar alone would give. Lane events
// carry no handle and cannot be cancelled; sites that cancel stay on
// Schedule and At.
type Lane struct {
	eng  *Engine
	d    Duration
	buf  []laneEntry // power-of-two ring; head is the next entry to fire
	head int
	n    int
}

type laneEntry struct {
	at  Time
	seq uint64
	fn  func()
}

// Schedule runs fn after the lane's delay. It allocates nothing once the
// ring has grown to the lane's peak occupancy, and panics, as
// Engine.Schedule does, when the delay runs past the clock's end.
func (l *Lane) Schedule(fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	e := l.eng
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = laneEntry{at: e.after(l.d), seq: e.seq, fn: fn}
	l.n++
	e.seq++
}

// grow doubles the ring, unwrapping its entries to start at slot 0.
func (l *Lane) grow() {
	buf := make([]laneEntry, max(2*len(l.buf), 16))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// pop advances the head past its entry and returns the entry's callback,
// clearing the slot first: the callback may schedule on this lane again.
func (l *Lane) pop() func() {
	h := &l.buf[l.head]
	fn := h.fn
	h.fn = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return fn
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
	lanes   []*Lane
	rng     *rand.Rand
	stopped bool
	fired   uint64

	// free is the event freelist; fired and cancelled events return here
	// and are reset on reuse by At. pooling is always true outside the
	// package's own tests, which switch it off as an unpooled reference.
	free    []*Event
	pooling bool

	// watches counts the pending events Watch scheduled.
	watches int

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

// Pending returns the number of runnable events currently scheduled,
// lane events included.
func (e *Engine) Pending() int {
	n := e.events.len()
	for _, l := range e.lanes {
		n += l.n
	}
	return n
}

// Lane returns the engine's lane for delay d, creating it on first use. A
// negative delay is treated as zero.
func (e *Engine) Lane(d Duration) *Lane {
	if d < 0 {
		d = 0
	}
	for _, l := range e.lanes {
		if l.d == d {
			return l
		}
	}
	l := &Lane{eng: e, d: d}
	e.lanes = append(e.lanes, l)
	return l
}

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
// A delay that runs past the end of the int64 clock panics: callers
// bound their inputs, so only a bug can schedule one.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.after(d), fn)
}

// after returns the time d >= 0 from now, and panics if it overflows.
func (e *Engine) after(d Duration) Time {
	t := e.now.Add(d)
	if t < e.now {
		panic("sim: scheduled past the end of the int64 clock")
	}
	return t
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

// Watch runs fn after first and then every period, for as long as events
// other than watches are pending: a watcher (a sampler, a controller)
// observes the simulation but never keeps a finished one alive, however
// many watchers run beside it. Watch events are calendar events like any
// other and fire in (time, sequence) order with the rest.
func (e *Engine) Watch(first, period Duration, fn func()) {
	var tick func()
	tick = func() {
		e.watches--
		fn()
		if e.Pending() > e.watches {
			e.watches++
			e.Schedule(period, tick)
		}
	}
	e.watches++
	e.Schedule(first, tick)
}

// Stop makes Run or RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// peek finds the next event: the least (time, sequence) among the
// calendar's top and the lane heads. l is nil when the calendar's top is
// next; ok is false when nothing is pending.
func (e *Engine) peek() (l *Lane, at Time, ok bool) {
	var seq uint64
	if len(e.events.a) > 0 {
		top := e.events.a[0]
		at, seq, ok = top.at, top.seq, true
	}
	for _, ln := range e.lanes {
		if ln.n == 0 {
			continue
		}
		h := &ln.buf[ln.head]
		if !ok || h.at < at || h.at == at && h.seq < seq {
			l, at, seq, ok = ln, h.at, h.seq, true
		}
	}
	return l, at, ok
}

// Step executes the single next event. It reports false when no runnable
// event remains.
func (e *Engine) Step() bool {
	l, at, ok := e.peek()
	if !ok {
		return false
	}
	e.now = at
	e.fired++
	if e.obs != nil {
		e.obs.EventFired(at)
	}
	if l != nil {
		l.pop()()
		return true
	}
	ev := e.events.pop()
	// Recycle before firing is unsafe (the callback may reschedule into
	// this slot while a holder still points here); recycle after is safe
	// because holders drop their handles inside the callback.
	ev.fn()
	e.release(ev)
	return true
}

// Run executes events until none is pending or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending. If Stop ends the loop while
// an event at or before t is still pending, the clock stays at the last
// fired event, so it never runs backwards.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for {
		if _, at, ok := e.peek(); !ok || at > t {
			if e.now < t {
				e.now = t
			}
			return
		}
		if e.stopped {
			return
		}
		e.Step()
	}
}
