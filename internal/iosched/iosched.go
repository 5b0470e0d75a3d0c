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

	// Decisions, when non-nil, receives structured decision provenance
	// (why a dispatch happened: batch continuation vs deadline expiry,
	// anticipation outcomes, CFQ slice lifecycle). Shared across elevator
	// switches so a level's tallies accumulate over the whole run; a nil
	// recorder discards updates with no allocation (the disabled hot path
	// is pinned at 0 allocs/op).
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
			l.cut(i)
			return
		}
	}
	// Front merges move a request's start sector; fall back to linear scan.
	for j, q := range l.reqs {
		if q == r {
			l.cut(j)
			return
		}
	}
	panic("iosched: removing request not in sorted list")
}

// cut deletes slot i, clearing the vacated tail slot so the backing array
// does not root a dispatched (and possibly recycled) request.
func (l *sortedList) cut(i int) {
	n := len(l.reqs) - 1
	copy(l.reqs[i:], l.reqs[i+1:])
	l.reqs[n] = nil
	l.reqs = l.reqs[:n]
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

// fifo is an insertion-ordered queue used for deadline enforcement. Each
// entry carries its request's expiry time, as Linux requests carry
// rq->fifo_time, so no side map is needed to look deadlines up.
type fifo struct {
	reqs []fifoEntry
}

type fifoEntry struct {
	r        *block.Request
	deadline sim.Time
}

func (f *fifo) len() int { return len(f.reqs) }

func (f *fifo) push(r *block.Request, deadline sim.Time) {
	f.reqs = append(f.reqs, fifoEntry{r, deadline})
}

// front returns the oldest request and its deadline, or nil when empty.
func (f *fifo) front() (*block.Request, sim.Time) {
	if len(f.reqs) == 0 {
		return nil, 0
	}
	return f.reqs[0].r, f.reqs[0].deadline
}

func (f *fifo) remove(r *block.Request) {
	for i, e := range f.reqs {
		if e.r == r {
			n := len(f.reqs) - 1
			copy(f.reqs[i:], f.reqs[i+1:])
			f.reqs[n] = fifoEntry{}
			f.reqs = f.reqs[:n]
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

// requeue moves r to the back of the bucket, where cutting and
// re-adding it leaves it.
func (b *mergeBucket) requeue(r *block.Request) {
	b.cut(r)
	b.add(r)
}

// backMerger returns the first request in scan order that r can be
// appended to, or nil.
func (b *mergeBucket) backMerger(r *block.Request, maxSectors int64) *block.Request {
	if b.first == nil {
		return nil
	}
	if b.first.CanBackMerge(r, maxSectors) {
		return b.first
	}
	for _, q := range b.rest {
		if q.CanBackMerge(r, maxSectors) {
			return q
		}
	}
	return nil
}

// frontMerger returns the first request in scan order that r can be
// prepended to, or nil.
func (b *mergeBucket) frontMerger(r *block.Request, maxSectors int64) *block.Request {
	if b.first == nil {
		return nil
	}
	if b.first.CanFrontMerge(r, maxSectors) {
		return b.first
	}
	for _, q := range b.rest {
		if q.CanFrontMerge(r, maxSectors) {
			return q
		}
	}
	return nil
}

// mergeEntry holds everything indexed under one sector key: the queued
// requests that start there and those that end there.
type mergeEntry struct {
	starts mergeBucket
	ends   mergeBucket
}

func (e *mergeEntry) empty() bool { return e.starts.first == nil && e.ends.first == nil }

// mergeTable maps a sector key to its entry. It is open-addressed: linear
// probing over a power-of-two slot array from a multiplicative (Fibonacci)
// hash of the key, backward-shift deletion so the table never holds
// tombstones, and doubling at 3/4 load. Key -1 marks an empty slot, which
// is safe because sectors are never negative. A Go map here spent most of
// the merger's time hashing (DESIGN.md §13).
//
// A slot is a key and one pointer, 16 bytes. Keep it that small: a tuning
// search builds about a thousand mergers, and storing the entry inline
// in the slot raised the search's peak heap without running faster.
type mergeTable struct {
	slots []mergeSlot
	live  int
	shift uint // 64 - log2(len(slots))
}

type mergeSlot struct {
	key int64
	e   *mergeEntry
}

const (
	mergeTableMinBits = 4
	emptyKey          = -1
)

func newMergeTable(bits uint) mergeTable {
	slots := make([]mergeSlot, 1<<bits)
	for i := range slots {
		slots[i].key = emptyKey
	}
	return mergeTable{slots: slots, shift: 64 - bits}
}

// home is key's preferred slot: the top bits of key times 2^64/φ.
func (t *mergeTable) home(key int64) int {
	return int(uint64(key) * 0x9e3779b97f4a7c15 >> t.shift)
}

// lookup runs key's probe. It returns key's slot and true, or the empty
// slot the probe stopped on — where key would be inserted — and false.
func (t *mergeTable) lookup(key int64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i, true
		case emptyKey:
			return i, false
		}
	}
}

// makeRoom grows the table if one more key would pass 3/4 load. It
// reports whether it grew, which moves every slot.
func (t *mergeTable) makeRoom() bool {
	if (t.live+1)*4 <= len(t.slots)*3 {
		return false
	}
	old := t.slots
	*t = newMergeTable(64 - t.shift + 1)
	for _, s := range old {
		if s.key != emptyKey {
			i, _ := t.lookup(s.key)
			t.insertAt(i, s.key, s.e)
		}
	}
	return true
}

// insertAt stores key in slot i, the empty slot its lookup stopped on.
func (t *mergeTable) insertAt(i int, key int64, e *mergeEntry) {
	if key < 0 {
		panic("iosched: negative sector key")
	}
	t.slots[i] = mergeSlot{key, e}
	t.live++
}

// deleteAt empties slot i, then walks the rest of its probe run and moves
// back every entry whose home does not lie cyclically between the hole
// and the entry itself, so each key stays reachable from its home without
// tombstones.
func (t *mergeTable) deleteAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != emptyKey; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mergeSlot{key: emptyKey}
	t.live--
}

// merger owns one table keyed by sector. Entries are stored by pointer so
// the hot path mutates them in place, and an entry leaves the table once
// both its buckets empty — a missing key and an empty bucket offer
// identical candidates, and dropping dead keys keeps the table sized to
// the queued population instead of every sector the run ever touched.
// Emptied entries go to a freelist keeping their overflow capacity.
type merger struct {
	index      mergeTable
	free       []*mergeEntry
	maxSectors int64
}

func newMerger(maxSectors int64) *merger {
	return &merger{index: newMergeTable(mergeTableMinBits), maxSectors: maxSectors}
}

// mergeOrAdd coalesces r into a queued request and returns the grown
// request, or indexes r and returns nil when no queued request can take
// it. Back merges are tried before front merges, each bucket in scan
// order; cascading merges of the third adjacent request are not
// attempted, like most 2.6 elevators.
//
// The lookup at r's start yields the back-merge candidates and r's own
// start entry; the lookup at r's end yields the front-merge candidates
// and r's own end entry. A merge moves only the grown request's key that
// changed, and re-orders its other bucket as removing and re-adding the
// request would (cut, then append).
func (m *merger) mergeOrAdd(r *block.Request) *block.Request {
	t := &m.index
	start, end := r.Sector, r.End()
	si, sok := t.lookup(start)
	ei, eok := t.lookup(end)
	if sok {
		old := t.slots[si].e
		if q := old.ends.backMerger(r, m.maxSectors); q != nil {
			i, _ := t.lookup(q.Sector)
			t.slots[i].e.starts.requeue(q)
			old.ends.cut(q)
			q.BackMerge(r)
			e, grew := m.entryAt(end, ei, eok)
			e.ends.add(q)
			if grew {
				si, _ = t.lookup(start)
			}
			m.dropIfEmpty(si, old)
			return q
		}
	}
	if eok {
		old := t.slots[ei].e
		if q := old.starts.frontMerger(r, m.maxSectors); q != nil {
			i, _ := t.lookup(q.End())
			t.slots[i].e.ends.requeue(q)
			old.starts.cut(q)
			q.FrontMerge(r)
			e, grew := m.entryAt(start, si, sok)
			e.starts.add(q)
			if grew {
				ei, _ = t.lookup(end)
			}
			m.dropIfEmpty(ei, old)
			return q
		}
	}
	e, grew := m.entryAt(start, si, sok)
	e.starts.add(r)
	if grew || ei == si {
		// Inserting start moved every slot, or took the empty slot
		// end's probe stopped on.
		ei, _ = t.lookup(end)
	}
	e, _ = m.entryAt(end, ei, eok)
	e.ends.add(r)
	return nil
}

// entryAt returns the entry under key, creating it when absent; i and
// found are key's lookup. It reports whether creating the entry grew the
// table, which moves every slot.
func (m *merger) entryAt(key int64, i int, found bool) (*mergeEntry, bool) {
	t := &m.index
	if found {
		return t.slots[i].e, false
	}
	grew := t.makeRoom()
	if grew {
		i, _ = t.lookup(key)
	}
	var e *mergeEntry
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		e = &mergeEntry{}
	}
	t.insertAt(i, key, e)
	return e, grew
}

// dropIfEmpty releases e, stored in slot i, once both its buckets are
// empty.
func (m *merger) dropIfEmpty(i int, e *mergeEntry) {
	if e.empty() {
		m.index.deleteAt(i)
		m.free = append(m.free, e)
	}
}

// remove deletes r's index entries at dispatch.
func (m *merger) remove(r *block.Request) {
	t := &m.index
	if i, ok := t.lookup(r.Sector); ok {
		e := t.slots[i].e
		e.starts.cut(r)
		m.dropIfEmpty(i, e)
	}
	if i, ok := t.lookup(r.End()); ok {
		e := t.slots[i].e
		e.ends.cut(r)
		m.dropIfEmpty(i, e)
	}
}
