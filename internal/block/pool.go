package block

import "fmt"

// Pool recycles Requests with an explicit free-at-complete lifecycle: the
// issuing layer Gets a request instead of calling NewRequest, and the Queue
// automatically Puts pool-owned requests (and their merged children) back
// once completion hooks have run.
//
// Two modes:
//
//   - fast (checked=false): Put resets a request and recycles its memory;
//     Get reuses it. Holding a pointer past completion is a use-after-free.
//   - checked (checked=true): Put marks the request freed and detects
//     double-frees, but never recycles memory, so a freed request stays
//     freed and any later use of it surfaces: a double Put reports a
//     violation and a re-Submit of a freed request panics in
//     Queue.Submit. Checked runs and the elevator fuzzer rely on it as
//     their use-after-free detector.
//
// A Pool is single-threaded, like the engine that drives it.
type Pool struct {
	free    []*Request
	checked bool
	// report receives lifecycle violations in checked mode (wired to the
	// invariant checker's Report). nil means panic on violation.
	report func(format string, args ...any)
	stats  PoolStats
}

// PoolStats counts pool traffic.
type PoolStats struct {
	// Gets is the number of requests handed out; Reuses of those came from
	// the freelist rather than the allocator.
	Gets   uint64
	Reuses uint64
	// Puts counts successful frees; DoubleFrees counts Put calls on an
	// already-freed request (reported, never recycled).
	Puts        uint64
	DoubleFrees uint64
}

// NewPool returns a request pool. With checked true the pool only detects
// lifecycle violations (reporting through report, or panicking when report
// is nil) and never recycles memory.
func NewPool(checked bool, report func(format string, args ...any)) *Pool {
	return &Pool{checked: checked, report: report}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// Get returns a fresh request covering count sectors starting at sector,
// reusing freed memory when possible. Like NewRequest, it panics on a
// non-positive count or a negative sector. The request is owned by the
// pool: the queue that completes it frees it, after which the caller must
// not touch it.
func (p *Pool) Get(op Op, sector, count int64, sync bool, stream StreamID) *Request {
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		checkExtent(sector, count)
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.stats.Reuses++
		// Put already dropped the pointer fields and pool is unchanged:
		// only the scalars need resetting, which spares a whole-struct
		// copy and its write barriers.
		r.Op, r.Sector, r.Count, r.Sync, r.Stream = op, sector, count, sync, stream
		r.Issued, r.Dispatched, r.Completed = 0, 0, 0
		r.Journey, r.BacklogHold = 0, 0
		r.state = stateNew
		return r
	}
	r := NewRequest(op, sector, count, sync, stream)
	r.pool = p
	return r
}

// Put returns a request to the pool. The Queue calls this automatically for
// pool-owned requests at completion; manual callers must guarantee nothing
// holds the pointer. Freeing an already-freed request is detected in both
// modes and never corrupts the freelist.
func (p *Pool) Put(r *Request) {
	if r.pool != p {
		p.violation("block: freeing request %v into a pool it does not belong to", r)
		return
	}
	if r.state == stateFreed {
		p.stats.DoubleFrees++
		p.violation("block: double free of request %v", r)
		return
	}
	r.state = stateFreed
	p.stats.Puts++
	// Drop references so neither the freelist nor a quarantined checked-mode
	// request roots callbacks or merge chains.
	r.OnComplete = nil
	r.mergedHead, r.mergedTail, r.mergedNext, r.mergedInto = nil, nil, nil, nil
	if p.checked {
		return
	}
	p.free = append(p.free, r)
}

func (p *Pool) violation(format string, args ...any) {
	if p.report != nil {
		p.report(format, args...)
		return
	}
	panic(fmt.Sprintf(format, args...))
}

// release frees r into its owning pool, if it has one. Called by the Queue
// after completion hooks have run.
func (r *Request) release() {
	if r.pool != nil {
		r.pool.Put(r)
	}
}
