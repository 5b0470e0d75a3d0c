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

// mergeTable maps a sector key to its bucket. It is open-addressed: linear
// probing over a power-of-two slot array from a multiplicative (Fibonacci)
// hash of the key, backward-shift deletion so the table never holds
// tombstones, and doubling at 3/4 load. Key -1 marks an empty slot, which
// is safe because sectors are never negative. A Go map here spent most of
// the merger's time hashing (DESIGN.md §13).
//
// A slot is a key and one pointer, 16 bytes. Keep it that small: a tuning
// search builds about a thousand mergers, and storing the bucket inline
// in the slot raised the search's peak heap without running faster.
type mergeTable struct {
	slots []mergeSlot
	live  int
	shift uint // 64 - log2(len(slots))
}

type mergeSlot struct {
	key int64
	b   *mergeBucket
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

// find returns key's slot index, or -1 if key is absent.
func (t *mergeTable) find(key int64) int {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i
		case emptyKey:
			return -1
		}
	}
}

// get returns the bucket under key, or nil.
func (t *mergeTable) get(key int64) *mergeBucket {
	if i := t.find(key); i >= 0 {
		return t.slots[i].b
	}
	return nil
}

// put inserts key, which must be absent.
func (t *mergeTable) put(key int64, b *mergeBucket) {
	if key < 0 {
		panic("iosched: negative sector key")
	}
	if (t.live+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != emptyKey {
		i = (i + 1) & mask
	}
	t.slots[i] = mergeSlot{key, b}
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

func (t *mergeTable) grow() {
	old := t.slots
	*t = newMergeTable(64 - t.shift + 1)
	for _, s := range old {
		if s.key != emptyKey {
			t.put(s.key, s.b)
		}
	}
}

// Buckets are stored by pointer so the hot path mutates them in place: an
// add probes the table once (plus one insert when the key is new), never
// re-assigning the bucket value. Emptied buckets go to a freelist keeping
// their overflow capacity.
type merger struct {
	byStart    mergeTable
	byEnd      mergeTable
	free       []*mergeBucket
	maxSectors int64
}

func newMerger(maxSectors int64) *merger {
	return &merger{
		byStart:    newMergeTable(mergeTableMinBits),
		byEnd:      newMergeTable(mergeTableMinBits),
		maxSectors: maxSectors,
	}
}

// bucket resolves (creating if needed) the bucket under key in idx.
func (m *merger) bucket(idx *mergeTable, key int64) *mergeBucket {
	b := idx.get(key)
	if b == nil {
		if n := len(m.free); n > 0 {
			b = m.free[n-1]
			m.free[n-1] = nil
			m.free = m.free[:n-1]
		} else {
			b = &mergeBucket{}
		}
		idx.put(key, b)
	}
	return b
}

func (m *merger) add(r *block.Request) {
	m.bucket(&m.byStart, r.Sector).add(r)
	m.bucket(&m.byEnd, r.End()).add(r)
}

// remove deletes r's index entries. Emptied buckets leave the table — a
// missing key and an empty bucket offer identical candidates, and dropping
// dead keys keeps the tables sized to the queued population instead of
// every sector the run ever touched.
func (m *merger) remove(r *block.Request) {
	m.unindex(&m.byStart, r.Sector, r)
	m.unindex(&m.byEnd, r.End(), r)
}

// unindex drops r from the bucket under key, releasing the bucket once it
// empties.
func (m *merger) unindex(idx *mergeTable, key int64, r *block.Request) {
	i := idx.find(key)
	if i < 0 {
		return
	}
	b := idx.slots[i].b
	b.cut(r)
	if b.first == nil {
		idx.deleteAt(i)
		m.free = append(m.free, b)
	}
}

// tryMerge attempts to coalesce r into a queued request. On success it
// returns the grown request (whose index entries have been refreshed);
// cascading merges of the third adjacent request are not attempted, like
// most 2.6 elevators.
func (m *merger) tryMerge(r *block.Request) *block.Request {
	if b := m.byEnd.get(r.Sector); b != nil {
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
	if b := m.byStart.get(r.End()); b != nil {
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
