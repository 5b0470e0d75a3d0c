// Package check is the runtime correctness harness for the block/elevator
// core: an invariant observer that attaches to a block.Queue through its
// lifecycle hooks (OnEnqueue/OnMerge/OnDispatch/OnComplete/OnSwitched) and
// a deterministic differential-fuzz harness (FuzzElevators) that runs
// byte-decoded workload programs against all four elevators plus a
// trivially-correct FIFO reference model.
//
// Enforced invariants:
//
//   - exactly-once completion: every submitted request completes exactly
//     once (merged children through their parent), never twice, never as
//     a merged child directly, and never without having been dispatched;
//   - no backlogged dispatch: a request submitted during an elevator
//     switch drain must not dispatch until the new elevator took over;
//   - depth: in-flight requests never exceed the queue's dispatch depth,
//     and an elevator switch never finishes with requests in flight;
//   - monotone stamps: Issued ≤ Dispatched ≤ Completed on every request;
//   - merge-byte conservation: a merge parent's extent covers the child,
//     and at drain time the bytes completed equal the bytes submitted;
//   - deadline bound: under the deadline elevator an expired request may
//     be overtaken by at most a bounded number of dispatches;
//   - CFQ async-starvation cap: an asynchronous request may wait through
//     at most MaxAsyncStarve (+slack) sync slices.
//
// Checkers cost nothing when not attached — the queue's hook points range
// over nil slices. Attached, bookkeeping is O(1) per lifecycle event.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"adaptmr/internal/block"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
)

// Violation describes one invariant breach observed on a queue.
type Violation struct {
	// Queue names the queue the checker was attached to ("host0/dom0").
	Queue string
	// Invariant is the short machine-friendly invariant id
	// ("exactly-once", "depth", "backlogged-dispatch", ...).
	Invariant string
	// Time is the simulation time of the breach.
	Time sim.Time
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: [%s] at %v: %s", v.Queue, v.Invariant, v.Time, v.Detail)
}

// maxStoredViolations caps the per-Set violation log; the total count
// keeps incrementing past the cap.
const maxStoredViolations = 64

// Set aggregates invariant checkers and their violations across many
// queues (and, under parallel evaluation, across many concurrently
// simulated clusters — Set is safe for concurrent use; each Invariants
// instance itself is confined to its engine's goroutine).
type Set struct {
	mu         sync.Mutex
	violations []Violation
	total      int
	checkers   []*Invariants
}

// NewSet returns an empty checker set.
func NewSet() *Set { return &Set{} }

func (s *Set) record(v Violation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if len(s.violations) < maxStoredViolations {
		s.violations = append(s.violations, v)
	}
}

// Report records a violation observed by an external checker (one not
// built by Attach — e.g. the xen journey tracker's ns-exactness audit),
// folding it into the same capped log and total as the queue invariants.
func (s *Set) Report(queue, invariant string, at sim.Time, detail string) {
	s.record(Violation{Queue: queue, Invariant: invariant, Time: at, Detail: detail})
}

// Violations returns a snapshot of the recorded violations (capped at
// maxStoredViolations; Total reports the uncapped count).
func (s *Set) Violations() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Violation, len(s.violations))
	copy(out, s.violations)
	return out
}

// Total returns the number of violations observed, including any past the
// storage cap.
func (s *Set) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Err returns nil when no invariant was violated, otherwise an error
// summarising every recorded violation.
func (s *Set) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s):", s.total)
	for _, v := range s.violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if s.total > len(s.violations) {
		fmt.Fprintf(&b, "\n  ... and %d more", s.total-len(s.violations))
	}
	return fmt.Errorf("%s", b.String())
}

// Finalize runs the end-of-run audit (request leaks, byte conservation)
// of every checker still attached: Retire has audited the others. Call it
// once the simulation has fully drained; a run abandoned mid-flight
// (context cancellation) should skip it.
func (s *Set) Finalize() {
	s.mu.Lock()
	checkers := make([]*Invariants, len(s.checkers))
	copy(checkers, s.checkers)
	s.mu.Unlock()
	for _, c := range checkers {
		c.Final()
	}
}

// Retire runs the end-of-run audit of every checker attached with eng,
// folding its verdict into the set's log and total, and drops those
// checkers, so the set no longer keeps their queues and engine alive.
// Finalize then audits only the checkers still attached, so each checker
// is audited once. A fleet retires a cell's checkers when the cell's
// engine drains; call it only once eng's simulation has fully drained.
func (s *Set) Retire(eng *sim.Engine) {
	s.mu.Lock()
	var retired []*Invariants
	kept := s.checkers[:0]
	for _, c := range s.checkers {
		if c.eng == eng {
			retired = append(retired, c)
		} else {
			kept = append(kept, c)
		}
	}
	clear(s.checkers[len(kept):])
	s.checkers = kept
	s.mu.Unlock()
	for _, c := range retired {
		c.Final()
	}
}

// Attach builds an Invariants observer for q, subscribes it to the
// queue's lifecycle hooks and registers it with the set. name labels the
// queue in violations; p supplies the elevator tunables the policy bounds
// (deadline expiry, CFQ slices) are derived from — pass the same Params
// the elevators were built with, or the zero value to disable the policy
// checks and keep only the lifecycle invariants.
func (s *Set) Attach(eng *sim.Engine, q *block.Queue, name string, p iosched.Params) *Invariants {
	c := newInvariants(s, eng, q, name, p)
	s.mu.Lock()
	s.checkers = append(s.checkers, c)
	s.mu.Unlock()
	return c
}

// reqState mirrors the queue-side lifecycle for double-accounting checks.
type reqState uint8

const (
	rsQueued reqState = iota
	rsDispatched
	rsMerged
	rsDone
)

type reqInfo struct {
	r     *block.Request
	state reqState
	// seq is the request's submission index on its queue.
	seq int64
	// backlogged marks requests submitted during a switch drain; cleared
	// when the switch finishes.
	backlogged bool
	// entered is when the request entered the current elevator (submit
	// time, or backlog-replay time).
	entered sim.Time
	// bytes is the extent size at submission (merging grows the request
	// afterwards).
	bytes int64
	// children are the requests merged into this one.
	children []*block.Request
	// overtakes counts dispatches that overtook this request after its
	// deadline expired; -1 until the deadline passes (deadline elevator).
	overtakes int
	// fifoExpSlice is the estimated-slice counter value when this async
	// request was first seen past its CFQ fifo deadline; -1 before then
	// (CFQ per-request starvation bound).
	fifoExpSlice int
}

// Invariants watches one queue. It must only be used from the simulation
// goroutine that drives the queue's engine.
type Invariants struct {
	set  *Set
	eng  *sim.Engine
	q    *block.Queue
	name string
	p    iosched.Params

	// reqs is the ledger of requests the queue still holds: an entry goes
	// when its request completes, and a merged child's once its parent's
	// completion audited it.
	reqs map[*block.Request]*reqInfo
	// backlog holds the requests submitted during a switch drain, in
	// submission order, until the new elevator takes over.
	backlog []*reqInfo

	submitted, completed int64
	bytesIn, bytesOut    int64

	// Starvation-bound bookkeeping: per-direction FIFO of queued requests
	// (deadline expiry is checked on the oldest entry only, which is the
	// first to starve), and a FIFO of queued async requests for the CFQ
	// async-starvation cap. Entries that left the queue are dropped as
	// they reach the head.
	fifo      [2][]*reqInfo
	asyncFifo []*reqInfo

	// Estimated CFQ sync-slice counter: a sync dispatch whose stream
	// differs from the previous one, or that comes ≥ SliceSync after it,
	// starts a new estimated slice. The estimate never exceeds the true
	// slice count, so the starvation bounds cannot false-positive.
	sliceSeq     int
	lastSyncAt   sim.Time
	lastSyncStrm block.StreamID
	haveSyncDisp bool
	// asyncGapBase is the slice counter at the most recent async dispatch
	// (or at the moment async work appeared after a drained spell): the
	// baseline for the class-level async starvation bound.
	asyncGapBase int
}

func newInvariants(set *Set, eng *sim.Engine, q *block.Queue, name string, p iosched.Params) *Invariants {
	c := &Invariants{
		set:  set,
		eng:  eng,
		q:    q,
		name: name,
		p:    p,
		reqs: make(map[*block.Request]*reqInfo),
	}
	q.OnEnqueue(c.enqueue)
	q.OnMerge(c.merge)
	q.OnDispatch(c.dispatch)
	q.OnComplete(c.complete)
	q.OnSwitched(c.switched)
	return c
}

func (c *Invariants) violate(invariant, format string, args ...any) {
	c.set.record(Violation{
		Queue:     c.name,
		Invariant: invariant,
		Time:      c.eng.Now(),
		Detail:    fmt.Sprintf(format, args...),
	})
}

func (c *Invariants) enqueue(r *block.Request) {
	if _, ok := c.reqs[r]; ok {
		c.violate("exactly-once", "request %v submitted twice", r)
		return
	}
	info := &reqInfo{
		r:            r,
		state:        rsQueued,
		seq:          c.submitted,
		entered:      c.eng.Now(),
		bytes:        r.Bytes(),
		overtakes:    -1,
		fifoExpSlice: -1,
	}
	if c.q.Switching() {
		info.backlogged = true
		c.backlog = append(c.backlog, info)
	}
	c.reqs[r] = info
	c.submitted++
	c.bytesIn += r.Bytes()
	if r.Issued != c.eng.Now() {
		c.violate("stamps", "request %v issued stamp %v != now", r, r.Issued)
	}
	if !info.backlogged {
		c.track(info)
	}
}

// track enrols a request in the starvation FIFOs once it is actually
// inside an elevator (immediately on submit, or at backlog replay).
func (c *Invariants) track(info *reqInfo) {
	c.fifo[info.r.Op] = append(c.fifo[info.r.Op], info)
	if !info.r.IsSyncFull() {
		if oldestQueued(&c.asyncFifo) == nil {
			// Async work reappears after a drained spell: slices granted
			// while nothing waited are not starvation.
			c.asyncGapBase = c.sliceSeq
		}
		c.asyncFifo = append(c.asyncFifo, info)
	}
}

func (c *Invariants) merge(parent, child *block.Request) {
	pi, pok := c.reqs[parent]
	ci, cok := c.reqs[child]
	if !pok || !cok {
		c.violate("merge", "merge of untracked request(s) %v <- %v", parent, child)
		return
	}
	if pi.state != rsQueued {
		c.violate("merge", "merge into request %v in state %d (must be queued)", parent, pi.state)
	}
	if ci.state != rsQueued {
		c.violate("merge", "merged child %v in state %d (must be queued)", child, ci.state)
	}
	if parent.Sector > child.Sector || child.End() > parent.End() {
		c.violate("merge-bytes", "parent extent [%d,%d) does not cover child [%d,%d)",
			parent.Sector, parent.End(), child.Sector, child.End())
	}
	ci.state = rsMerged
	pi.children = append(pi.children, child)
}

func (c *Invariants) dispatch(r *block.Request) {
	info, ok := c.reqs[r]
	if !ok {
		c.violate("exactly-once", "dispatch of request %v the queue does not hold (never submitted, or completed)", r)
		return
	}
	switch info.state {
	case rsDispatched:
		c.violate("exactly-once", "request %v dispatched twice", r)
	case rsMerged:
		c.violate("exactly-once", "merged child %v dispatched directly", r)
	}
	if info.backlogged && c.q.Switching() {
		c.violate("backlogged-dispatch",
			"request %v submitted during the switch drain was dispatched before the new elevator took over", r)
	}
	if fl, depth := c.q.InFlight(), c.q.Depth(); fl > depth {
		c.violate("depth", "in-flight %d exceeds queue depth %d", fl, depth)
	}
	now := c.eng.Now()
	if r.Dispatched != now {
		c.violate("stamps", "request %v dispatch stamp %v != now", r, r.Dispatched)
	}
	if r.Dispatched < r.Issued {
		c.violate("stamps", "request %v dispatched (%v) before issued (%v)", r, r.Dispatched, r.Issued)
	}
	info.state = rsDispatched
	c.checkDeadlineBound(now)
	c.checkAsyncStarvation(r, now)
	// Drop what left the queue from the FIFO heads, so a drained queue
	// leaves them empty.
	oldestQueued(&c.fifo[block.Read])
	oldestQueued(&c.fifo[block.Write])
	oldestQueued(&c.asyncFifo)
}

// deadlineOvertakeBound is how many dispatches may overtake an expired
// request before the checker calls it starved. The deadline elevator's
// own guarantee is one FIFOBatch-sized batch per direction plus the
// WritesStarved alternation; the bound leaves generous slack on top so
// saturated-but-progressing queues never false-positive.
func (c *Invariants) deadlineOvertakeBound() int {
	fb := c.p.FIFOBatch
	if fb <= 0 {
		return 0 // policy checks disabled
	}
	ws := c.p.WritesStarved
	if ws < 1 {
		ws = 1
	}
	return fb * (ws + 2) * 4
}

// checkDeadlineBound enforces the deadline elevator's starvation bound on
// the oldest queued request of each direction.
func (c *Invariants) checkDeadlineBound(now sim.Time) {
	if c.q.Elevator().Name() != iosched.Deadline {
		return
	}
	bound := c.deadlineOvertakeBound()
	if bound == 0 {
		return
	}
	for op := 0; op < 2; op++ {
		front := oldestQueued(&c.fifo[op])
		if front == nil {
			continue
		}
		expire := c.p.ReadExpire
		if block.Op(op) == block.Write {
			expire = c.p.WriteExpire
		}
		if expire <= 0 || now < front.entered.Add(expire) {
			continue
		}
		if front.overtakes < 0 {
			front.overtakes = 0
		}
		front.overtakes++
		if front.overtakes > bound {
			front.overtakes = -1 << 30 // report once
			c.violate("deadline-bound",
				"%s request %v expired %v ago and was overtaken by more than %d dispatches",
				front.r.Op, front.r, now.Sub(front.entered.Add(expire)), bound)
		}
	}
}

// checkAsyncStarvation enforces CFQ's two async-starvation guarantees
// using a conservative estimate of elapsed sync slices. Class-level: CFQ
// grants at most 16 consecutive sync slices (maxAsyncStarve) while async
// work waits, so the estimated slices between consecutive async
// dispatches are bounded. Per-request: once the oldest async request
// outlives its fifo deadline (FifoExpireAsync, cfq_check_fifo), the next
// async slice must serve it — so it too waits at most one cap's worth of
// sync slices after expiry, no matter how deep the async backlog is or
// where the C-SCAN head sits.
func (c *Invariants) checkAsyncStarvation(r *block.Request, now sim.Time) {
	if c.q.Elevator().Name() != iosched.CFQ || c.p.SliceSync <= 0 {
		return
	}
	if r.IsSyncFull() {
		if !c.haveSyncDisp || r.Stream != c.lastSyncStrm || now.Sub(c.lastSyncAt) >= c.p.SliceSync {
			c.sliceSeq++
		}
		c.haveSyncDisp = true
		c.lastSyncAt = now
		c.lastSyncStrm = r.Stream
	} else {
		c.asyncGapBase = c.sliceSeq
	}
	front := oldestQueued(&c.asyncFifo)
	if front == nil {
		return
	}
	// Slack over maxAsyncStarve covers the estimate's boundary cases and
	// slices straddling the async work's arrival or expiry.
	const starveCap = 16 + 8
	if c.sliceSeq-c.asyncGapBase > starveCap {
		c.asyncGapBase = c.sliceSeq // re-arm: report each further cap's worth
		c.violate("cfq-async-starvation",
			"async class starved: more than %d sync slices since the last async dispatch while %v waited", starveCap, front.r)
	}
	if c.p.FifoExpireAsync <= 0 || now < front.entered.Add(c.p.FifoExpireAsync) {
		return
	}
	if front.fifoExpSlice < 0 {
		front.fifoExpSlice = c.sliceSeq
	} else if c.sliceSeq-front.fifoExpSlice > starveCap {
		front.fifoExpSlice = 1 << 30 // report once
		c.violate("cfq-async-starvation",
			"async request %v outlived its fifo deadline and then waited through more than %d sync slices", front.r, starveCap)
	}
}

// oldestQueued drops the entries at the head of a starvation FIFO whose
// requests left the queue and returns its oldest queued entry, or nil.
// Only the head is ever inspected, so interior entries go when they
// surface.
func oldestQueued(fifo *[]*reqInfo) *reqInfo {
	f := *fifo
	for len(f) > 0 && f[0].state != rsQueued {
		f[0] = nil
		f = f[1:]
	}
	*fifo = f
	if len(f) == 0 {
		return nil
	}
	return f[0]
}

func (c *Invariants) complete(r *block.Request) {
	info, ok := c.reqs[r]
	if !ok {
		c.violate("exactly-once", "completion of request %v the queue does not hold (never submitted, or completed already)", r)
		return
	}
	now := c.eng.Now()
	switch info.state {
	case rsQueued:
		c.violate("exactly-once", "request %v completed without dispatch", r)
	case rsMerged:
		c.violate("exactly-once", "merged child %v completed directly", r)
	}
	if r.Completed != now {
		c.violate("stamps", "request %v completed stamp %v != now", r, r.Completed)
	}
	if r.Completed < r.Dispatched || r.Dispatched < r.Issued {
		c.violate("stamps", "request %v non-monotone stamps issued=%v dispatched=%v completed=%v",
			r, r.Issued, r.Dispatched, r.Completed)
	}
	if c.q.InFlight() < 0 {
		c.violate("depth", "in-flight count went negative")
	}
	info.state = rsDone
	delete(c.reqs, r)
	c.completed++
	// The parent's extent covers every merged child, so its bytes account
	// for the whole merged run.
	c.bytesOut += r.Bytes()
	var childBytes int64
	for _, ch := range info.children {
		ci := c.reqs[ch]
		if ci == nil {
			// merge enrols only tracked children, so a missing one has
			// completed already.
			c.violate("exactly-once", "merged child %v completed twice", ch)
			continue
		}
		ci.state = rsDone
		delete(c.reqs, ch)
		c.completed++
		childBytes += ci.bytes
		if ch.Completed != now {
			c.violate("stamps", "merged child %v completed stamp %v != parent completion time", ch, ch.Completed)
		}
	}
	if got := r.Bytes(); got != info.bytes+childBytes {
		c.violate("merge-bytes",
			"completed extent %d bytes != own %d + merged children %d bytes",
			got, info.bytes, childBytes)
	}
}

func (c *Invariants) switched(info block.SwitchInfo) {
	now := c.eng.Now()
	if info.Done != now {
		c.violate("switch", "SwitchInfo.Done %v != now", info.Done)
	}
	if info.Stall != info.Done.Sub(info.Start) {
		c.violate("switch", "SwitchInfo.Stall %v != Done-Start %v", info.Stall, info.Done.Sub(info.Start))
	}
	if info.From == "" || info.To == "" {
		c.violate("switch", "SwitchInfo names missing: %q -> %q", info.From, info.To)
	}
	// The new elevator starts with a clean dispatch history: re-baseline
	// the policy bounds and enrol the replayed backlog in submission
	// order. The old elevator drained before the switch finished, so the
	// backlog is all the queue can still hold.
	c.sliceSeq = 0
	c.haveSyncDisp = false
	c.fifo[0], c.fifo[1], c.asyncFifo = nil, nil, nil
	for _, ri := range c.backlog {
		ri.backlogged = false
		if ri.state == rsQueued {
			ri.entered = now
			ri.overtakes = -1
			c.track(ri)
		}
	}
	c.backlog = nil
}

// Final audits terminal state: every submitted request completed exactly
// once and bytes were conserved end to end. Only call it after the
// simulation drained; the facade skips it for abandoned runs.
func (c *Invariants) Final() {
	if c.q.Pending() != 0 || c.q.InFlight() != 0 {
		c.violate("leak", "queue not drained at finalize: pending=%d inflight=%d",
			c.q.Pending(), c.q.InFlight())
	}
	// Every request still in the ledger never completed; report the
	// first three in submission order.
	var leaked []*reqInfo
	for _, info := range c.reqs {
		leaked = append(leaked, info)
	}
	slices.SortFunc(leaked, func(a, b *reqInfo) int { return cmp.Compare(a.seq, b.seq) })
	for _, info := range leaked[:min(len(leaked), 3)] {
		c.violate("leak", "request %v never completed (state %d)", info.r, info.state)
	}
	if len(leaked) > 3 {
		c.violate("leak", "... and %d more leaked requests", len(leaked)-3)
	}
	if c.completed != c.submitted {
		c.violate("exactly-once", "completed %d of %d submitted requests", c.completed, c.submitted)
	}
	if c.bytesOut != c.bytesIn {
		c.violate("merge-bytes", "bytes out %d != bytes in %d", c.bytesOut, c.bytesIn)
	}
}

// Submitted and Completed report the checker's lifetime tallies
// (diagnostics and tests).
func (c *Invariants) Submitted() int64 { return c.submitted }

// Completed reports how many requests (parents and merged children) the
// checker has seen complete.
func (c *Invariants) Completed() int64 { return c.completed }

// BytesIn returns the total bytes submitted to the queue.
func (c *Invariants) BytesIn() int64 { return c.bytesIn }

// BytesOut returns the total bytes accounted through completions.
func (c *Invariants) BytesOut() int64 { return c.bytesOut }
