package block

import (
	"slices"
	"testing"

	"adaptmr/internal/sim"
)

// benchElv is a single-slot FIFO for the allocation benchmarks: it holds at
// most one request in a pointer field, so the elevator itself never
// allocates on the submit/dispatch/complete path.
type benchElv struct{ r *Request }

func (e *benchElv) Name() string                 { return "bench" }
func (e *benchElv) Add(r *Request, _ sim.Time)   { e.r = r }
func (e *benchElv) Completed(*Request, sim.Time) {}
func (e *benchElv) Pending() int {
	if e.r != nil {
		return 1
	}
	return 0
}
func (e *benchElv) Dispatch(_ sim.Time) (*Request, sim.Time) {
	r := e.r
	e.r = nil
	return r, 0
}

// benchDev completes every request synchronously inside Service, so a
// submit drives the full enqueue→dispatch→complete cycle with no simulator
// events.
type benchDev struct{}

func (benchDev) Service(r *Request, done func(*Request)) { done(r) }

// resetForResubmit rewinds a completed request so the benchmark can push the
// same object through the queue again without allocating a fresh one.
func resetForResubmit(r *Request) {
	r.state = stateNew
	r.mergedInto = nil
}

// BenchmarkHooksDisabled measures the full request lifecycle through a
// queue with no observer hooks attached. This path must stay at 0 allocs/op
// — the disabled-observability guarantee that lets perf-sensitive runs keep
// queues un-instrumented for free. TestHooksDisabledZeroAlloc pins it.
func BenchmarkHooksDisabled(b *testing.B) {
	eng := sim.New(1)
	q := NewQueue(eng, &benchElv{}, benchDev{}, 1)
	r := NewRequest(Read, 0, 8, true, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetForResubmit(r)
		q.Submit(r)
	}
}

// BenchmarkHooksEnabled is the contrast case: one subscriber on each hook
// point. It is allowed to allocate; it exists so `benchstat` diffs show the
// cost of instrumentation rather than leaving it folded into model changes.
func BenchmarkHooksEnabled(b *testing.B) {
	eng := sim.New(1)
	q := NewQueue(eng, &benchElv{}, benchDev{}, 1)
	var n int64
	q.OnEnqueue(func(*Request) { n++ })
	q.OnDispatch(func(*Request) { n++ })
	q.OnComplete(func(*Request) { n++ })
	r := NewRequest(Read, 0, 8, true, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetForResubmit(r)
		q.Submit(r)
	}
	_ = n
}

// TestHooksDisabledZeroAlloc pins the hooks-disabled dispatch path at zero
// allocations per operation. If this fails, something on the hot path —
// usually a closure capturing per-request state — started allocating.
func TestHooksDisabledZeroAlloc(t *testing.T) {
	res := testing.Benchmark(BenchmarkHooksDisabled)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("hooks-disabled dispatch path allocates %d allocs/op, want 0", a)
	}
}

// holdDev keeps the one request it services until finish completes it.
type holdDev struct {
	r    *Request
	done func(*Request)
}

func (d *holdDev) Service(r *Request, done func(*Request)) { d.r, d.done = r, done }

func (d *holdDev) finish() {
	r := d.r
	d.r = nil
	d.done(r)
}

// TestMergeChainSteadyStateZeroAlloc pins the merge chain: once the pool
// is warm, a queue that absorbs a back-merged and two front-merged
// children into a waiting request, then completes the parent, allocates
// nothing, and the children complete after the parent in merge order.
func TestMergeChainSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.New(1)
	p := NewPool(false, nil)
	dev := &holdDev{}
	q := NewQueue(eng, &mergingElv{max: 1024}, dev, 1)
	submitted := make([]*Request, 0, 8)
	completed := make([]*Request, 0, 8)
	record := func(r *Request) { completed = append(completed, r) }
	submit := func(op Op, sector int64) {
		r := p.Get(op, sector, 8, false, 1)
		r.OnComplete = record
		submitted = append(submitted, r)
		q.Submit(r)
	}
	cycle := func() {
		submitted, completed = submitted[:0], completed[:0]
		submit(Read, 0)     // dispatched: occupies the device
		submit(Write, 1000) // waits in the elevator: the parent
		submit(Write, 1008) // back merge
		submit(Write, 992)  // front merge
		submit(Write, 984)  // front merge
		dev.finish()        // the blocker completes; the parent dispatches
		dev.finish()        // the parent completes with its children
	}
	cycle()
	// The parent completes first, then its children in merge order, which
	// here is submission order.
	if !slices.Equal(completed, submitted) {
		t.Fatalf("completion order %v, want submission order %v", completed, submitted)
	}
	if st := q.Stats(); st.MergedRequests != 3 || st.WriteRequests != 1 || st.WriteBytes != 4*8*SectorSize {
		t.Fatalf("stats = %+v, want 3 children merged into one 32-sector write", st)
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("merge and completion allocate %v objects per cycle, want 0", a)
	}
	if st := p.Stats(); st.Gets != st.Puts || len(p.free) != 5 {
		t.Fatalf("pool stats %+v with %d free, want every request back", st, len(p.free))
	}
	for _, r := range p.free {
		if r.mergedHead != nil || r.mergedTail != nil || r.mergedNext != nil || r.mergedInto != nil {
			t.Fatalf("freed request %v keeps merge links", r)
		}
	}
}
