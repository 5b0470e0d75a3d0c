// Package iosched implements the four Linux 2.6 disk I/O schedulers the
// paper studies — noop, deadline, anticipatory and CFQ — against the
// block.Elevator interface. The implementations keep the policy decisions
// that matter for the paper's effects: request merging, one-way sector
// sorting, read/write deadline batches, anticipation for synchronous reads,
// and per-stream time slices with idling.
package iosched

import (
	"fmt"
	"sort"

	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// Scheduler names as exposed through /sys/block/<dev>/queue/scheduler.
const (
	Noop         = "noop"
	Deadline     = "deadline"
	Anticipatory = "anticipatory"
	CFQ          = "cfq"
)

// Names lists all scheduler names in the paper's canonical order.
var Names = []string{CFQ, Deadline, Anticipatory, Noop}

// ShortCode returns the single-letter code the paper uses in Fig 5
// (c: CFQ, d: Deadline, a: Anticipatory, n: Noop).
func ShortCode(name string) string {
	switch name {
	case CFQ:
		return "c"
	case Deadline:
		return "d"
	case Anticipatory:
		return "a"
	case Noop:
		return "n"
	}
	return "?"
}

// FromShortCode resolves a single-letter code back to a scheduler name.
func FromShortCode(c string) (string, error) {
	switch c {
	case "c":
		return CFQ, nil
	case "d":
		return Deadline, nil
	case "a":
		return Anticipatory, nil
	case "n":
		return Noop, nil
	}
	return "", fmt.Errorf("iosched: unknown scheduler code %q", c)
}

// Params carries tunables shared by the elevators. Zero value is not
// usable; use DefaultParams.
type Params struct {
	// MaxSectors caps a merged request extent (Linux max_sectors_kb=512).
	MaxSectors int64

	// Deadline/AS batch and expiry knobs.
	ReadExpire    sim.Duration // deadline: 500ms, AS: 125ms
	WriteExpire   sim.Duration // deadline: 5s, AS: 250ms
	FIFOBatch     int          // deadline: 16
	WritesStarved int          // deadline: max read batches before forced write batch

	// Anticipatory knobs.
	AnticExpire    sim.Duration // max anticipation wait (6ms)
	AnticMaxMisses int          // consecutive timeouts before a stream loses trust
	// AS alternates time-based batches, strongly favouring reads
	// (as-iosched defaults: 500ms read batches, 125ms write batches).
	ASBatchExpireRead  sim.Duration
	ASBatchExpireWrite sim.Duration
	// AnticCloseSectors is the as_close_req radius: while anticipating, AS
	// dispatches a request from the anticipated stream only if it lands
	// within this distance of the last head position; a far request keeps
	// the disk waiting for the current sequential run to continue. This is
	// the "seek-conserving" behaviour the paper credits AS with.
	AnticCloseSectors int64

	// CFQ knobs.
	SliceSync  sim.Duration // sync per-stream slice (100ms)
	SliceAsync sim.Duration // async pseudo-stream slice (40ms)
	SliceIdle  sim.Duration // idle window at end of a sync slice (8ms)
	// FifoExpireSync/FifoExpireAsync are CFQ's per-request fifo deadlines
	// (cfq_fifo_expire: sync 125ms, async 250ms). When the queue holding
	// the dispatch slice has an oldest request past its deadline, CFQ
	// serves that request instead of the sector-sorted candidate — without
	// this, a deep continuously-refilled async backlog can bypass one old
	// write for many C-SCAN sweeps (exposed by multi-job fleet hosts,
	// whose Dom0 async queues stay hundreds of requests deep). Zero
	// disables the check.
	FifoExpireSync  sim.Duration
	FifoExpireAsync sim.Duration

	// Counters, when non-nil, receives scheduler-internal decision counts
	// (anticipation windows, CFQ slices/idles). Shared across elevator
	// switches so a level's counts accumulate over the whole run; a nil
	// value discards updates.
	Counters *obs.SchedCounters

	// Decisions, when non-nil, receives structured decision provenance
	// (why a dispatch happened: batch continuation vs deadline expiry,
	// anticipation outcomes, CFQ slice lifecycle). Shared across elevator
	// switches like Counters; a nil recorder discards updates with no
	// allocation (the disabled hot path is pinned at 0 allocs/op).
	Decisions *obs.DecisionRecorder
}

// DefaultParams mirrors the Linux 2.6.22 defaults the paper's testbed ran.
func DefaultParams() Params {
	return Params{
		MaxSectors:         1024, // 512 KB
		ReadExpire:         500 * sim.Millisecond,
		WriteExpire:        5 * sim.Second,
		FIFOBatch:          16,
		WritesStarved:      2,
		AnticExpire:        6 * sim.Millisecond,
		AnticMaxMisses:     3,
		ASBatchExpireRead:  500 * sim.Millisecond,
		ASBatchExpireWrite: 125 * sim.Millisecond,
		AnticCloseSectors:  8192, // 4 MiB
		SliceSync:          100 * sim.Millisecond,
		SliceAsync:         40 * sim.Millisecond,
		SliceIdle:          8 * sim.Millisecond,
		FifoExpireSync:     125 * sim.Millisecond,
		FifoExpireAsync:    250 * sim.Millisecond,
	}
}

// New constructs a scheduler by name: a *NoopSched, *DeadlineSched,
// *AnticipatorySched or *CFQSched behind the block.Elevator interface.
func New(name string, p Params) (block.Elevator, error) {
	switch name {
	case Noop:
		return NewNoop(p), nil
	case Deadline:
		return NewDeadline(p), nil
	case Anticipatory:
		return NewAnticipatory(p), nil
	case CFQ:
		return NewCFQ(p), nil
	}
	return nil, fmt.Errorf("iosched: unknown scheduler %q", name)
}

// MustNew is New for known-valid names.
func MustNew(name string, p Params) block.Elevator {
	e, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return e
}

// ---------------------------------------------------------------------------
// Shared building blocks
// ---------------------------------------------------------------------------

// sortedList keeps requests in ascending start-sector order, supporting the
// one-way elevator scan every sorting scheduler uses.
type sortedList struct {
	reqs []*block.Request
}

func (l *sortedList) len() int { return len(l.reqs) }

func (l *sortedList) insert(r *block.Request) {
	i := sort.Search(len(l.reqs), func(i int) bool { return l.reqs[i].Sector >= r.Sector })
	l.reqs = append(l.reqs, nil)
	copy(l.reqs[i+1:], l.reqs[i:])
	l.reqs[i] = r
}

// remove deletes r from the list; it panics if r is absent (elevator
// bookkeeping bug).
func (l *sortedList) remove(r *block.Request) {
	i := sort.Search(len(l.reqs), func(i int) bool { return l.reqs[i].Sector >= r.Sector })
	for ; i < len(l.reqs) && l.reqs[i].Sector == r.Sector; i++ {
		if l.reqs[i] == r {
			copy(l.reqs[i:], l.reqs[i+1:])
			l.reqs = l.reqs[:len(l.reqs)-1]
			return
		}
	}
	// Front merges move a request's start sector; fall back to linear scan.
	for j, q := range l.reqs {
		if q == r {
			copy(l.reqs[j:], l.reqs[j+1:])
			l.reqs = l.reqs[:len(l.reqs)-1]
			return
		}
	}
	panic("iosched: removing request not in sorted list")
}

// refresh restores r's sort position after its start sector changed (a
// front merge moves the extent start backwards, silently breaking the
// ascending invariant the binary searches in insert/next rely on).
func (l *sortedList) refresh(r *block.Request) {
	l.remove(r)
	l.insert(r)
}

// next returns the first request at or beyond pos, wrapping to the lowest
// sector when the scan passes the end (one-way elevator / C-SCAN).
func (l *sortedList) next(pos int64) *block.Request {
	if len(l.reqs) == 0 {
		return nil
	}
	i := sort.Search(len(l.reqs), func(i int) bool { return l.reqs[i].Sector >= pos })
	if i == len(l.reqs) {
		i = 0
	}
	return l.reqs[i]
}

func (l *sortedList) front() *block.Request {
	if len(l.reqs) == 0 {
		return nil
	}
	return l.reqs[0]
}

// fifo is an insertion-ordered queue used for deadline enforcement.
type fifo struct {
	reqs []*block.Request
}

func (f *fifo) len() int { return len(f.reqs) }

func (f *fifo) push(r *block.Request) { f.reqs = append(f.reqs, r) }

func (f *fifo) front() *block.Request {
	if len(f.reqs) == 0 {
		return nil
	}
	return f.reqs[0]
}

func (f *fifo) remove(r *block.Request) {
	for i, q := range f.reqs {
		if q == r {
			copy(f.reqs[i:], f.reqs[i+1:])
			f.reqs = f.reqs[:len(f.reqs)-1]
			return
		}
	}
	panic("iosched: removing request not in fifo")
}

// merger indexes queued requests by start and end sector, mirroring the
// block layer's rq hash, so an incoming request can be coalesced with an
// adjacent queued request in O(1).
//
// A bucket stores its first entry inline because almost every sector key
// holds exactly one queued request at a time: the overflow slice only
// allocates on a genuine collision, so steady-state indexing is
// allocation-free. Bucket order evolves exactly like the plain
// append/swap-remove slice it replaces (first is conceptual slot 0), so
// candidate scan order — and therefore which request wins a merge — is
// unchanged.
type mergeBucket struct {
	first *block.Request
	rest  []*block.Request
}

func (b *mergeBucket) add(r *block.Request) {
	if b.first == nil && len(b.rest) == 0 {
		b.first = r
		return
	}
	b.rest = append(b.rest, r)
}

// cut removes r, moving the last entry into its slot (the swap-remove the
// slice version performed).
func (b *mergeBucket) cut(r *block.Request) {
	if b.first == r {
		if n := len(b.rest); n > 0 {
			b.first = b.rest[n-1]
			b.rest[n-1] = nil
			b.rest = b.rest[:n-1]
		} else {
			b.first = nil
		}
		return
	}
	for i, q := range b.rest {
		if q == r {
			n := len(b.rest)
			b.rest[i] = b.rest[n-1]
			b.rest[n-1] = nil
			b.rest = b.rest[:n-1]
			return
		}
	}
}

// Buckets are stored by pointer so the hot path mutates them in place: an
// add touches the map only on a lookup (plus one insert when the key is
// new), never re-assigning the bucket value. Emptied buckets go to a
// freelist keeping their overflow capacity.
type merger struct {
	byStart    map[int64]*mergeBucket
	byEnd      map[int64]*mergeBucket
	free       []*mergeBucket
	maxSectors int64
}

func newMerger(maxSectors int64) *merger {
	return &merger{
		byStart:    make(map[int64]*mergeBucket),
		byEnd:      make(map[int64]*mergeBucket),
		maxSectors: maxSectors,
	}
}

// bucket resolves (creating if needed) the bucket under key in idx.
func (m *merger) bucket(idx map[int64]*mergeBucket, key int64) *mergeBucket {
	b := idx[key]
	if b == nil {
		if n := len(m.free); n > 0 {
			b = m.free[n-1]
			m.free[n-1] = nil
			m.free = m.free[:n-1]
		} else {
			b = &mergeBucket{}
		}
		idx[key] = b
	}
	return b
}

func (m *merger) add(r *block.Request) {
	m.bucket(m.byStart, r.Sector).add(r)
	m.bucket(m.byEnd, r.End()).add(r)
}

// remove deletes r's index entries. Emptied buckets are deleted from the
// map — a missing key and an empty bucket offer identical candidates, and
// dropping dead keys keeps the maps sized to the queued population instead
// of every sector the run ever touched.
func (m *merger) remove(r *block.Request) {
	if b := m.byStart[r.Sector]; b != nil {
		b.cut(r)
		if b.first == nil {
			delete(m.byStart, r.Sector)
			m.free = append(m.free, b)
		}
	}
	if b := m.byEnd[r.End()]; b != nil {
		b.cut(r)
		if b.first == nil {
			delete(m.byEnd, r.End())
			m.free = append(m.free, b)
		}
	}
}

// tryMerge attempts to coalesce r into a queued request. On success it
// returns the grown request (whose index entries have been refreshed);
// cascading merges of the third adjacent request are not attempted, like
// most 2.6 elevators.
func (m *merger) tryMerge(r *block.Request) *block.Request {
	if b := m.byEnd[r.Sector]; b != nil {
		if b.first.CanBackMerge(r, m.maxSectors) {
			q := b.first
			m.remove(q)
			q.BackMerge(r)
			m.add(q)
			return q
		}
		for _, q := range b.rest {
			if q.CanBackMerge(r, m.maxSectors) {
				m.remove(q)
				q.BackMerge(r)
				m.add(q)
				return q
			}
		}
	}
	if b := m.byStart[r.End()]; b != nil {
		if b.first.CanFrontMerge(r, m.maxSectors) {
			q := b.first
			m.remove(q)
			q.FrontMerge(r)
			m.add(q)
			return q
		}
		for _, q := range b.rest {
			if q.CanFrontMerge(r, m.maxSectors) {
				m.remove(q)
				q.FrontMerge(r)
				m.add(q)
				return q
			}
		}
	}
	return nil
}
