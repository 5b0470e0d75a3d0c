package block

import (
	"fmt"

	"adaptmr/internal/sim"
)

// Elevator is the I/O scheduler plugged into a Queue. Implementations live
// in internal/iosched (noop, deadline, anticipatory, cfq).
//
// The Queue calls Add when a request enters the elevator (after the elevator
// performs any merging), Dispatch when the device has capacity, and
// Completed when the device finishes a request (anticipatory and CFQ use
// completions to drive idling decisions).
type Elevator interface {
	// Name returns the registry name ("noop", "deadline", "anticipatory",
	// "cfq").
	Name() string
	// Add inserts a request, merging it into queued requests if possible.
	Add(r *Request, now sim.Time)
	// Dispatch returns the next request to service. It may return (nil,
	// wake) with wake > now to indicate it is deliberately idling (e.g.
	// anticipation) and should be polled again at wake, or (nil, 0) if it
	// has nothing to do.
	Dispatch(now sim.Time) (*Request, sim.Time)
	// Completed notifies the elevator that a dispatched request finished.
	Completed(r *Request, now sim.Time)
	// Pending returns the number of queued (not yet dispatched) requests.
	Pending() int
}

// Device services dispatched requests; it is the physical disk under the
// Dom0 queue and the blkfront/blkback ring under a guest queue.
type Device interface {
	// Service starts the request and invokes done(r) exactly once on
	// completion, passing back the same request. The Queue enforces its
	// dispatch depth; Service is never called with more than depth
	// outstanding requests.
	//
	// done is the same function value on every call (the queue binds it
	// once at construction), so the dispatch hot path allocates nothing;
	// devices that complete asynchronously capture r in their own
	// completion event instead.
	Service(r *Request, done func(*Request))
}

// QueueStats aggregates what flowed through a queue.
type QueueStats struct {
	ReadRequests   int64
	WriteRequests  int64
	ReadBytes      int64
	WriteBytes     int64
	MergedRequests int64
	TotalWait      sim.Duration // time from Issued to Completed, summed
	// Switches counts physical switch drains: commands that arrive while a
	// drain is already in progress coalesce into it and do not add here.
	Switches int
	// SwitchCommands counts every SetElevator call accepted, including
	// coalesced ones; SwitchCommands - Switches is how many commands were
	// absorbed into an already-running drain.
	SwitchCommands int
	SwitchStall    sim.Duration // total time submissions were blocked by switching
}

// SwitchInfo describes one completed elevator switch for observer hooks.
type SwitchInfo struct {
	// From and To are the elevator names before and after the switch.
	From, To string
	// Start is when SetElevator initiated the switch; Done is when the
	// new elevator took over and the backlog replayed.
	Start, Done sim.Time
	// Stall is Done - Start: the full drain + re-init window during which
	// new submissions were held back.
	Stall sim.Duration
	// Backlog is how many requests arrived during the drain window and
	// were held back until the new elevator took over — the per-switch
	// collateral the paper's switch-cost measurements aggregate.
	Backlog int
}

// Queue binds an elevator to a device, mirroring a Linux request queue.
//
// Observability: OnEnqueue, OnMerge, OnDispatch, OnComplete and
// OnSwitched register multi-subscriber observer hooks covering the full
// request lifecycle. Subscribers fire in registration order; there is no
// unsubscribe (discard the queue instead). With no subscribers each hook
// point costs a single predictable nil check — the disabled fast path.
type Queue struct {
	eng   *sim.Engine
	elv   Elevator
	dev   Device
	depth int

	inflight int
	wake     *sim.Event

	// dispatching guards kick against re-entrancy: a device that completes
	// synchronously re-enters complete→kick while the outer dispatch loop
	// is still running. Re-entrant kicks set rekick instead, and the outer
	// loop re-polls the elevator, so exactly one dispatch loop — and at
	// most one wake timer — exists at any time.
	dispatching bool
	rekick      bool

	switching   bool
	switchStart sim.Time
	switchFrom  string
	backlog     []*Request
	nextElv     Elevator
	switchStall sim.Duration
	switchDone  []func()
	// finishEv is the pending stall timer scheduled once the drain
	// completed; a coalescing SetElevator restarts it with its own reinit.
	finishEv *sim.Event

	stats QueueStats

	// completeFn is q.complete bound once at construction and handed to
	// every Device.Service call, so dispatching a request allocates no
	// per-request closure (the hooks-disabled hot path is allocation-free;
	// BenchmarkHooksDisabled pins this at 0 allocs/op).
	completeFn func(*Request)
	// wakeFn is the elevator idle-wake callback, bound once for the same
	// reason: CFQ/AS arm a wake timer per idle window.
	wakeFn func()

	// hooks is nil until the first subscriber registers, so every lifecycle
	// site pays exactly one predictable nil check when observability is off.
	hooks *queueHooks
}

// queueHooks groups the queue's observer subscriber lists behind a single
// pointer (see Queue.hooks).
type queueHooks struct {
	enqueue  []func(*Request)
	merge    []func(parent, child *Request)
	dispatch []func(*Request)
	complete []func(*Request)
	switched []func(SwitchInfo)
}

// NewQueue creates a queue dispatching at most depth requests into dev.
func NewQueue(eng *sim.Engine, elv Elevator, dev Device, depth int) *Queue {
	if depth <= 0 {
		panic("block: queue depth must be positive")
	}
	q := &Queue{eng: eng, elv: elv, dev: dev, depth: depth}
	q.completeFn = q.complete
	q.wakeFn = func() {
		q.wake = nil
		q.kick()
	}
	return q
}

// Elevator returns the currently installed elevator.
func (q *Queue) Elevator() Elevator { return q.elv }

// Stats returns a snapshot of the queue counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// Pending returns queued + backlogged + in-flight request count.
func (q *Queue) Pending() int {
	return q.elv.Pending() + len(q.backlog) + q.inflight
}

// InFlight returns the number of requests currently at the device.
func (q *Queue) InFlight() int { return q.inflight }

// Depth returns the dispatch depth the queue enforces at the device.
func (q *Queue) Depth() int { return q.depth }

// Switching reports whether an elevator switch is draining.
func (q *Queue) Switching() bool { return q.switching }

// subscribers returns the hook set, allocating it on first use.
func (q *Queue) subscribers() *queueHooks {
	if q.hooks == nil {
		q.hooks = &queueHooks{}
	}
	return q.hooks
}

// OnEnqueue subscribes fn to fire when a request enters the queue
// (before elevator insertion and thus before any merge).
func (q *Queue) OnEnqueue(fn func(*Request)) {
	h := q.subscribers()
	h.enqueue = append(h.enqueue, fn)
}

// OnMerge subscribes fn to fire when a request is coalesced into another;
// parent absorbed child.
func (q *Queue) OnMerge(fn func(parent, child *Request)) {
	h := q.subscribers()
	h.merge = append(h.merge, fn)
}

// OnDispatch subscribes fn to fire when a request is handed to the device.
func (q *Queue) OnDispatch(fn func(*Request)) {
	h := q.subscribers()
	h.dispatch = append(h.dispatch, fn)
}

// OnComplete subscribes fn to fire when a request completes at the device
// (merged children complete through their parent's callbacks, not here).
func (q *Queue) OnComplete(fn func(*Request)) {
	h := q.subscribers()
	h.complete = append(h.complete, fn)
}

// OnSwitched subscribes fn to fire when an elevator switch finishes.
func (q *Queue) OnSwitched(fn func(SwitchInfo)) {
	h := q.subscribers()
	h.switched = append(h.switched, fn)
}

// Submit hands a request to the queue. During an elevator switch new
// requests are held back (the sysfs switch path blocks submitters while the
// old elevator drains), which is the physical origin of the paper's switch
// cost.
func (q *Queue) Submit(r *Request) {
	if r.state != stateNew {
		panic(fmt.Sprintf("block: re-submitting request %v", r))
	}
	r.state = stateQueued
	r.Issued = q.eng.Now()
	if q.hooks != nil {
		for _, fn := range q.hooks.enqueue {
			fn(r)
		}
	}
	if q.switching {
		q.backlog = append(q.backlog, r)
		return
	}
	q.addToElevator(r)
	q.kick()
}

// addToElevator inserts r into the current elevator and reports a merge to
// subscribers if the elevator coalesced it into an existing request.
func (q *Queue) addToElevator(r *Request) {
	q.elv.Add(r, q.eng.Now())
	if q.hooks != nil && r.state == stateMerged && r.mergedInto != nil {
		for _, fn := range q.hooks.merge {
			fn(r.mergedInto, r)
		}
	}
}

// SetElevator switches the queue to a new elevator: dispatching continues
// from the old elevator until it fully drains, new submissions stall, then
// after reinit (the sysfs/elevator_init overhead) the new elevator takes
// over cold and the backlog replays. onDone fires when the switch finishes.
//
// Switching to an elevator with the same name still drains — the paper
// observes that re-assigning the same pair through the switch command is
// costly.
//
// Coalescing semantics: commands that arrive while a drain is already in
// progress are absorbed into it. The latest command's target AND reinit
// win; if the drain had already finished and the re-init stall timer was
// running, the timer restarts with the new reinit (the new elevator's
// init cost starts when it is named). Exactly one SwitchInfo is emitted
// per physical drain, with From naming the elevator that actually
// drained; every queued onDone callback fires when that drain finishes.
// stats.Switches counts physical drains; stats.SwitchCommands counts
// every accepted command.
func (q *Queue) SetElevator(elv Elevator, reinit sim.Duration, onDone func()) {
	if elv == nil {
		panic("block: nil elevator")
	}
	q.stats.SwitchCommands++
	if q.switching {
		// Coalesce: the most recent target and reinit win.
		q.nextElv = elv
		q.switchStall = reinit
		if onDone != nil {
			q.switchDone = append(q.switchDone, onDone)
		}
		if q.finishEv != nil {
			// The drain already completed and the stall timer is running:
			// restart it with the new elevator's re-init cost.
			q.finishEv.Cancel()
			q.finishEv = nil
			q.scheduleFinish()
		}
		return
	}
	q.switching = true
	q.switchStart = q.eng.Now()
	q.switchFrom = q.elv.Name()
	q.nextElv = elv
	q.switchStall = reinit
	if onDone != nil {
		q.switchDone = append(q.switchDone, onDone)
	}
	q.stats.Switches++
	q.maybeFinishSwitch()
	q.kick()
}

func (q *Queue) maybeFinishSwitch() {
	if !q.switching || q.finishEv != nil || q.elv.Pending() > 0 || q.inflight > 0 {
		return
	}
	q.scheduleFinish()
}

// scheduleFinish arms the post-drain re-init stall timer; when it fires
// the new elevator takes over and the backlog replays.
func (q *Queue) scheduleFinish() {
	q.finishEv = q.eng.Schedule(q.switchStall, func() {
		q.finishEv = nil
		q.elv = q.nextElv
		q.nextElv = nil
		q.switching = false
		now := q.eng.Now()
		q.stats.SwitchStall += now.Sub(q.switchStart)
		backlog := q.backlog
		q.backlog = nil
		for _, r := range backlog {
			// Everything held back since its submission was switch stall.
			r.BacklogHold += now.Sub(r.Issued)
			q.addToElevator(r)
		}
		info := SwitchInfo{
			From:    q.switchFrom,
			To:      q.elv.Name(),
			Start:   q.switchStart,
			Done:    now,
			Stall:   now.Sub(q.switchStart),
			Backlog: len(backlog),
		}
		done := q.switchDone
		q.switchDone = nil
		q.kick()
		if q.hooks != nil {
			for _, fn := range q.hooks.switched {
				fn(info)
			}
		}
		for _, fn := range done {
			fn()
		}
	})
}

// kick dispatches requests while the device has capacity. Re-entrant
// calls (synchronous completion, submission from a completion callback)
// defer to the running loop via rekick; the loop re-polls the elevator
// until no re-entrant kick arrived, so all state changes are observed by
// exactly one dispatch loop.
func (q *Queue) kick() {
	if q.dispatching {
		q.rekick = true
		return
	}
	q.dispatching = true
	for {
		q.rekick = false
		q.dispatchLoop()
		if !q.rekick {
			break
		}
	}
	q.dispatching = false
}

func (q *Queue) dispatchLoop() {
	if q.wake != nil {
		q.wake.Cancel()
		q.wake = nil
	}
	if q.finishEv != nil {
		// The switch drain has completed and the re-init stall timer is
		// running: the old elevator is logically retired. Polling it again
		// would let an armed anticipation/idle window fire post-drain
		// decisions (phantom timeout/expire records against an elevator
		// that has already exited) and re-arm wake timers that outlive it.
		return
	}
	for q.inflight < q.depth {
		r, wakeAt := q.elv.Dispatch(q.eng.Now())
		if r == nil {
			if wakeAt > q.eng.Now() {
				// Cancel-before-set: never leave a second live wake timer
				// behind (the historical double-kick bug).
				if q.wake != nil {
					q.wake.Cancel()
				}
				q.wake = q.eng.At(wakeAt, q.wakeFn)
			}
			return
		}
		if r.state != stateQueued {
			panic(fmt.Sprintf("block: dispatching request in state %d: %v", r.state, r))
		}
		r.state = stateDispatched
		r.Dispatched = q.eng.Now()
		q.inflight++
		if q.hooks != nil {
			for _, fn := range q.hooks.dispatch {
				fn(r)
			}
		}
		q.dev.Service(r, q.completeFn)
	}
}

func (q *Queue) complete(r *Request) {
	if r.state != stateDispatched {
		panic(fmt.Sprintf("block: completing request in state %d: %v", r.state, r))
	}
	q.inflight--
	now := q.eng.Now()
	// The parent extent already covers every merged child, so byte counters
	// are accounted once via the parent.
	q.account(r)
	q.elv.Completed(r, now)
	r.finish(now)
	if q.hooks != nil {
		for _, fn := range q.hooks.complete {
			fn(r)
		}
	}
	// Free-at-complete: once every completion callback and hook has run,
	// nothing in the stack may touch the request again, so the merge
	// chain is unlinked and pool-owned requests (and the children merged
	// into them) go back to their pool.
	m := r.mergedHead
	r.mergedHead, r.mergedTail = nil, nil
	r.release()
	for m != nil {
		next := m.mergedNext
		m.mergedNext = nil
		m.release()
		q.stats.MergedRequests++
		m = next
	}
	q.maybeFinishSwitch()
	q.kick()
}

func (q *Queue) account(r *Request) {
	if r.Op == Read {
		q.stats.ReadRequests++
		q.stats.ReadBytes += r.Count * SectorSize
	} else {
		q.stats.WriteRequests++
		q.stats.WriteBytes += r.Count * SectorSize
	}
	q.stats.TotalWait += q.eng.Now().Sub(r.Issued)
}
