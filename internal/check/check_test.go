package check

import (
	"strings"
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
)

// hasViolation reports whether the set recorded at least one violation of
// the given invariant id.
func hasViolation(s *Set, invariant string) bool {
	for _, v := range s.Violations() {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func newCheckedQueue(t *testing.T, elvName string, depth int, latency sim.Duration) (*sim.Engine, *block.Queue, *Set, *Invariants) {
	t.Helper()
	eng := sim.New(1)
	p := iosched.DefaultParams()
	elv, err := newProgElevator(elvName, p)
	if err != nil {
		t.Fatal(err)
	}
	q := block.NewQueue(eng, elv, &progDevice{eng: eng, latency: latency}, depth)
	set := NewSet()
	inv := set.Attach(eng, q, "test/q0", p)
	return eng, q, set, inv
}

// TestCheckerCleanRun pins that a well-behaved queue run produces zero
// violations for every elevator including the reference model.
func TestCheckerCleanRun(t *testing.T) {
	for _, name := range append([]string{RefName}, iosched.Names...) {
		t.Run(name, func(t *testing.T) {
			eng, q, set, inv := newCheckedQueue(t, name, 2, 100*sim.Microsecond)
			for i := 0; i < 20; i++ {
				i := i
				eng.Schedule(sim.Duration(i)*50*sim.Microsecond, func() {
					op := block.Read
					if i%3 == 0 {
						op = block.Write
					}
					q.Submit(block.NewRequest(op, int64(i%5)*128, 8, i%2 == 0, block.StreamID(i%3)))
				})
			}
			eng.Run()
			set.Finalize()
			if err := set.Err(); err != nil {
				t.Fatalf("clean run flagged: %v", err)
			}
			if inv.Submitted() != 20 || inv.Completed() != 20 {
				t.Fatalf("submitted=%d completed=%d, want 20/20", inv.Submitted(), inv.Completed())
			}
			if inv.BytesIn() != inv.BytesOut() {
				t.Fatalf("bytes in %d != out %d", inv.BytesIn(), inv.BytesOut())
			}
		})
	}
}

// TestCheckerDoubleSubmit drives the enqueue handler directly with the
// same request twice; the checker must flag the second as a lifecycle
// violation.
func TestCheckerDoubleSubmit(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	r := block.NewRequest(block.Read, 0, 8, true, 1)
	inv.enqueue(r)
	inv.enqueue(r)
	if !hasViolation(set, "exactly-once") {
		t.Fatalf("double submit not flagged: %v", set.Violations())
	}
}

// TestCheckerDoubleComplete walks one request through a legal lifecycle
// and then completes it a second time.
func TestCheckerDoubleComplete(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	r := block.NewRequest(block.Read, 0, 8, true, 1)
	inv.enqueue(r)
	inv.dispatch(r)
	inv.complete(r)
	if err := set.Err(); err != nil {
		t.Fatalf("legal lifecycle flagged: %v", err)
	}
	inv.complete(r)
	if !hasViolation(set, "exactly-once") {
		t.Fatalf("double complete not flagged: %v", set.Violations())
	}
}

// TestCheckerCompleteWithoutDispatch flags a completion for a request
// that was never dispatched.
func TestCheckerCompleteWithoutDispatch(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	r := block.NewRequest(block.Write, 64, 8, false, 1)
	inv.enqueue(r)
	inv.complete(r)
	if !hasViolation(set, "exactly-once") {
		t.Fatalf("complete-without-dispatch not flagged: %v", set.Violations())
	}
}

// TestCheckerMergedChildDispatched flags a merged child being dispatched
// on its own, and a merge whose parent extent does not cover the child.
func TestCheckerMergedChildDispatched(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	parent := block.NewRequest(block.Read, 0, 16, true, 1)
	child := block.NewRequest(block.Read, 8, 8, true, 1)
	inv.enqueue(parent)
	inv.enqueue(child)
	inv.merge(parent, child)
	if err := set.Err(); err != nil {
		t.Fatalf("legal merge flagged: %v", err)
	}
	inv.dispatch(child)
	if !hasViolation(set, "exactly-once") {
		t.Fatalf("merged-child dispatch not flagged: %v", set.Violations())
	}

	// Non-covering merge.
	_, _, set2, inv2 := newCheckedQueue(t, iosched.Noop, 1, 0)
	p2 := block.NewRequest(block.Read, 0, 8, true, 1)
	c2 := block.NewRequest(block.Read, 100, 8, true, 1)
	inv2.enqueue(p2)
	inv2.enqueue(c2)
	inv2.merge(p2, c2)
	if !hasViolation(set2, "merge-bytes") {
		t.Fatalf("non-covering merge not flagged: %v", set2.Violations())
	}
}

// lossyDevice swallows every nth request: done() is never called, so the
// request stays in flight forever — the checker's Final audit must report
// the leak. This is a black-box test through the real queue.
type lossyDevice struct {
	eng   *sim.Engine
	n     int
	count int
}

func (d *lossyDevice) Service(r *block.Request, done func(*block.Request)) {
	d.count++
	if d.count == d.n {
		return // lost
	}
	d.eng.Schedule(10*sim.Microsecond, func() { done(r) })
}

func TestCheckerDetectsLostRequest(t *testing.T) {
	eng := sim.New(1)
	p := iosched.DefaultParams()
	q := block.NewQueue(eng, iosched.MustNew(iosched.Noop, p), &lossyDevice{eng: eng, n: 2}, 2)
	set := NewSet()
	set.Attach(eng, q, "test/lossy", p)
	for i := 0; i < 3; i++ {
		q.Submit(block.NewRequest(block.Read, int64(i)*64, 8, true, 1))
	}
	eng.Run()
	set.Finalize()
	if !hasViolation(set, "leak") {
		t.Fatalf("lost request not flagged: %v", set.Violations())
	}
	err := set.Err()
	if err == nil || !strings.Contains(err.Error(), "test/lossy") {
		t.Fatalf("Err() should name the queue: %v", err)
	}
}

// TestRetireAuditsEachCheckerOnce pins the fold Retire performs: it
// audits the checkers of one engine into the set's verdict at once and
// drops them, and the later Finalize audits only the checkers still
// attached, so each checker's leaks are reported exactly once.
func TestRetireAuditsEachCheckerOnce(t *testing.T) {
	set := NewSet()
	p := iosched.DefaultParams()
	var engs []*sim.Engine
	for _, name := range []string{"test/a", "test/b"} {
		eng := sim.New(1)
		q := block.NewQueue(eng, iosched.MustNew(iosched.Noop, p), &lossyDevice{eng: eng, n: 2}, 2)
		set.Attach(eng, q, name, p)
		for i := 0; i < 3; i++ {
			q.Submit(block.NewRequest(block.Read, int64(i)*64, 8, true, 1))
		}
		eng.Run()
		engs = append(engs, eng)
	}
	count := func(queue string) int {
		n := 0
		for _, v := range set.Violations() {
			if v.Queue == queue {
				n++
			}
		}
		return n
	}
	set.Retire(engs[0])
	a := count("test/a")
	if a == 0 || count("test/b") != 0 || len(set.checkers) != 1 {
		t.Fatalf("after Retire: %d violations on a, %d on b, %d checkers kept; want a's audit only, b kept",
			a, count("test/b"), len(set.checkers))
	}
	set.Finalize()
	if got, b := count("test/a"), count("test/b"); got != a || b != a {
		t.Fatalf("after Finalize: %d violations on a, %d on b, want %d each", got, b, a)
	}
}

// TestSetErrCapsStorage pins that the violation log caps its storage but
// keeps counting.
func TestSetErrCapsStorage(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	r := block.NewRequest(block.Read, 0, 8, true, 1)
	inv.enqueue(r)
	for i := 0; i < maxStoredViolations+10; i++ {
		inv.enqueue(r) // each one is a double-submit violation
	}
	if got := set.Total(); got != maxStoredViolations+10 {
		t.Fatalf("Total() = %d, want %d", got, maxStoredViolations+10)
	}
	if got := len(set.Violations()); got != maxStoredViolations {
		t.Fatalf("stored %d violations, want cap %d", got, maxStoredViolations)
	}
	if err := set.Err(); err == nil || !strings.Contains(err.Error(), "more") {
		t.Fatalf("Err() should mention truncation: %v", err)
	}
}

// TestCheckerSwitchDrain runs a live elevator switch mid-workload through
// the real queue and asserts the checker stays clean: backlogged requests
// replay after the drain without tripping the backlogged-dispatch check,
// and all accounting balances.
func TestCheckerSwitchDrain(t *testing.T) {
	eng, q, set, inv := newCheckedQueue(t, iosched.CFQ, 2, 200*sim.Microsecond)
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(sim.Duration(i)*100*sim.Microsecond, func() {
			q.Submit(block.NewRequest(block.Read, int64(i)*256, 8, true, block.StreamID(i%2)))
		})
	}
	eng.Schedule(250*sim.Microsecond, func() {
		q.SetElevator(iosched.MustNew(iosched.Deadline, iosched.DefaultParams()), sim.Millisecond, nil)
	})
	eng.Run()
	set.Finalize()
	if err := set.Err(); err != nil {
		t.Fatalf("switch drain flagged: %v", err)
	}
	if inv.Completed() != 10 {
		t.Fatalf("completed %d of 10", inv.Completed())
	}
	if q.Stats().Switches != 1 {
		t.Fatalf("Switches = %d, want 1", q.Stats().Switches)
	}
}

// TestSwitchEnrolsBacklogInSubmissionOrder pins that the requests held
// back during an elevator switch enter the starvation FIFOs in
// submission order when the new elevator takes over: the async FIFO's
// head decides the cfq-async-starvation verdict, so its order must not
// depend on anything but the run. Repeated, since an order drawn from
// map iteration is right only by chance.
func TestSwitchEnrolsBacklogInSubmissionOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		eng, q, set, inv := newCheckedQueue(t, iosched.CFQ, 1, sim.Millisecond)
		var held, enrolled []*block.Request
		q.OnSwitched(func(block.SwitchInfo) {
			for _, ri := range inv.asyncFifo {
				if ri.state == rsQueued {
					enrolled = append(enrolled, ri.r)
				}
			}
		})
		eng.Schedule(0, func() {
			// In flight while the old elevator drains.
			q.Submit(block.NewRequest(block.Read, 0, 8, true, 1))
			q.SetElevator(iosched.MustNew(iosched.CFQ, iosched.DefaultParams()), sim.Millisecond, nil)
			for i := 0; i < 12; i++ {
				r := block.NewRequest(block.Write, int64(i+1)*1024, 8, false, block.StreamID(2+i%3))
				held = append(held, r)
				q.Submit(r)
			}
		})
		eng.Run()
		set.Finalize()
		if err := set.Err(); err != nil {
			t.Fatal(err)
		}
		// The new elevator may dispatch before the hook runs, so what the
		// FIFO holds must be the rest of the backlog, in order.
		if len(enrolled) < 8 {
			t.Fatalf("run %d: %d async requests enrolled, want at least 8", run, len(enrolled))
		}
		next := 0
		for _, r := range enrolled {
			for next < len(held) && held[next] != r {
				next++
			}
			if next == len(held) {
				t.Fatalf("run %d: async FIFO %v is not in submission order %v", run, enrolled, held)
			}
		}
	}
}

// TestCheckerLedgerDrains pins that the checker holds only what its queue
// holds: a drained run, with merges and a live switch, leaves the request
// ledger, the starvation FIFOs and the switch backlog empty.
func TestCheckerLedgerDrains(t *testing.T) {
	for _, name := range iosched.Names {
		t.Run(name, func(t *testing.T) {
			eng, q, set, inv := newCheckedQueue(t, name, 2, 100*sim.Microsecond)
			for i := 0; i < 20; i++ {
				i := i
				eng.Schedule(sim.Duration(i)*40*sim.Microsecond, func() {
					op := block.Read
					if i%3 == 0 {
						op = block.Write
					}
					// The second request extends the first, so the
					// elevators merge it.
					for half := int64(0); half < 2; half++ {
						q.Submit(block.NewRequest(op, int64(i)*4096+half*8, 8, i%2 == 0, block.StreamID(i%3)))
					}
				})
			}
			eng.Schedule(300*sim.Microsecond, func() {
				q.SetElevator(iosched.MustNew(iosched.CFQ, iosched.DefaultParams()), sim.Millisecond, nil)
			})
			eng.Run()
			set.Finalize()
			if err := set.Err(); err != nil {
				t.Fatal(err)
			}
			if q.Stats().MergedRequests == 0 || q.Stats().Switches != 1 {
				t.Fatalf("merged %d requests over %d switches, want some over 1",
					q.Stats().MergedRequests, q.Stats().Switches)
			}
			if n := len(inv.reqs) + len(inv.fifo[0]) + len(inv.fifo[1]) + len(inv.asyncFifo) + len(inv.backlog); n != 0 {
				t.Fatalf("drained run holds %d requests, %d+%d+%d FIFO entries and %d backlog entries",
					len(inv.reqs), len(inv.fifo[0]), len(inv.fifo[1]), len(inv.asyncFifo), len(inv.backlog))
			}
		})
	}
}
