// Package iosched implements the four Linux 2.6 disk I/O schedulers the
// paper studies — noop, deadline, anticipatory and CFQ — against the
// block.Elevator interface. The implementations keep the policy decisions
// that matter for the paper's effects: request merging, one-way sector
// sorting, read/write deadline batches, anticipation for synchronous reads,
// and per-stream time slices with idling.
package iosched

import (
	"fmt"
	"slices"
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
// adjacent queued request in O(1). A merger owns one table keyed by
// sector, whose slot for a key holds two buckets: the queued requests
// that start there and those that end there.
//
// A bucket keeps its first request in the slot itself, because almost
// every key holds at most one request per bucket at a time; the rest go
// to an overflow that is allocated when a second request joins a bucket
// and released when both buckets are down to their first again. So
// indexing allocates nothing per key. A bucket evolves like a plain
// append/swap-remove slice whose slot 0 is the inline request: the
// candidate scan order under a key, and therefore which request wins a
// merge, is that slice's.
type merger struct {
	index      mergeTable
	maxSectors int64
}

func newMerger(maxSectors int64) *merger {
	return &merger{index: newMergeTable(mergeTableMinBits), maxSectors: maxSectors}
}

// The two bucket sides of a slot.
const (
	starts = 0 // requests that start at the key: front-merge candidates
	ends   = 1 // requests that end at the key: back-merge candidates
)

// mergeOverflow holds a slot's further requests by side, in bucket order
// after the inline first.
type mergeOverflow [2][]*block.Request

// mergeTable maps a sector key to its buckets. It is open-addressed: linear
// probing over a power-of-two slot array from a multiplicative (Fibonacci)
// hash of the key, backward-shift deletion so the table never holds
// tombstones, and doubling at 3/4 load. Key -1 marks an empty slot, which
// is safe because sectors are never negative. A Go map here spent most of
// the merger's time hashing (DESIGN.md §13).
//
// A slot is 32 bytes: the key, each bucket's first request and the
// overflow pointer. Keep it no larger: a tuning search builds about a
// thousand mergers, and 40-byte slots holding whole buckets raised the
// search's peak heap without running faster.
type mergeTable struct {
	slots []mergeSlot
	live  int
	shift uint // 64 - log2(len(slots))
}

type mergeSlot struct {
	key   int64
	first [2]*block.Request // by side; nil when that bucket is empty
	more  *mergeOverflow    // nil unless a bucket holds two or more
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
			t.slots[i] = s
			t.live++
		}
	}
	return true
}

// insertAt stores key, with empty buckets, in slot i, the empty slot its
// lookup stopped on.
func (t *mergeTable) insertAt(i int, key int64) {
	if key < 0 {
		panic("iosched: negative sector key")
	}
	t.slots[i] = mergeSlot{key: key}
	t.live++
}

// deleteAt empties slot i, then walks the rest of its probe run and moves
// back every slot whose key's home does not lie cyclically between the
// hole and the slot itself, so each key stays reachable from its home
// without tombstones.
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

// add puts r on side k of key's bucket; i and found are key's lookup. It
// reports whether inserting the key grew the table, which moves every
// slot.
func (t *mergeTable) add(key int64, i int, found bool, k int, r *block.Request) bool {
	grew := false
	if !found {
		if grew = t.makeRoom(); grew {
			i, _ = t.lookup(key)
		}
		t.insertAt(i, key)
	}
	t.slots[i].add(k, r)
	return grew
}

// dropIfEmpty deletes slot i's key once both its buckets are empty: a
// missing key and an empty bucket offer the same candidates, and dropping
// dead keys keeps the table sized to the queued population instead of
// every sector the run ever touched.
func (t *mergeTable) dropIfEmpty(i int) {
	if s := &t.slots[i]; s.first[starts] == nil && s.first[ends] == nil {
		t.deleteAt(i)
	}
}

// rest is side k's overflow: the bucket's requests after the first.
func (s *mergeSlot) rest(k int) []*block.Request {
	if s.more == nil {
		return nil
	}
	return s.more[k]
}

// add appends r to side k's bucket.
func (s *mergeSlot) add(k int, r *block.Request) {
	if s.first[k] == nil {
		s.first[k] = r
		return
	}
	if s.more == nil {
		s.more = new(mergeOverflow)
	}
	s.more[k] = append(s.more[k], r)
}

// cut removes r from side k's bucket, moving the bucket's last request
// into its place, and reports whether r was there. The overflow goes
// once neither bucket uses it.
func (s *mergeSlot) cut(k int, r *block.Request) bool {
	rest := s.rest(k)
	n := len(rest) - 1
	switch {
	case s.first[k] == r && n < 0:
		s.first[k] = nil
		return true
	case s.first[k] == r:
		s.first[k] = rest[n]
	default:
		i := slices.Index(rest, r)
		if i < 0 {
			return false
		}
		rest[i] = rest[n]
	}
	rest[n] = nil
	s.more[k] = rest[:n]
	if len(s.more[starts])+len(s.more[ends]) == 0 {
		s.more = nil
	}
	return true
}

// requeue moves r to the back of side k's bucket, where cutting and
// re-adding it would leave it: r trades places with the last request.
func (s *mergeSlot) requeue(k int, r *block.Request) {
	rest := s.rest(k)
	n := len(rest) - 1
	switch {
	case s.first[k] == r && n < 0:
	case s.first[k] == r:
		s.first[k], rest[n] = rest[n], r
	default:
		i := slices.Index(rest, r)
		if i < 0 {
			panic("iosched: merged request not in merge index")
		}
		rest[i], rest[n] = rest[n], r
	}
}

// backMerger returns the first request ending at the key, in scan order,
// that r can be appended to, or nil.
func (s *mergeSlot) backMerger(r *block.Request, maxSectors int64) *block.Request {
	if q := s.first[ends]; q == nil || q.CanBackMerge(r, maxSectors) {
		return q
	}
	for _, q := range s.rest(ends) {
		if q.CanBackMerge(r, maxSectors) {
			return q
		}
	}
	return nil
}

// frontMerger returns the first request starting at the key, in scan
// order, that r can be prepended to, or nil.
func (s *mergeSlot) frontMerger(r *block.Request, maxSectors int64) *block.Request {
	if q := s.first[starts]; q == nil || q.CanFrontMerge(r, maxSectors) {
		return q
	}
	for _, q := range s.rest(starts) {
		if q.CanFrontMerge(r, maxSectors) {
			return q
		}
	}
	return nil
}

// mergeOrAdd coalesces r into a queued request and returns the grown
// request, or indexes r and returns nil when no queued request can take
// it. Back merges are tried before front merges, each bucket in scan
// order; cascading merges of the third adjacent request are not
// attempted, like most 2.6 elevators.
//
// The lookup at r's start yields the back-merge candidates and r's own
// start slot; the lookup at r's end yields the front-merge candidates
// and r's own end slot. A merge moves only the grown request's key that
// changed, and re-orders its other bucket as removing and re-adding the
// request would (cut, then append).
func (m *merger) mergeOrAdd(r *block.Request) *block.Request {
	t := &m.index
	start, end := r.Sector, r.End()
	si, sok := t.lookup(start)
	ei, eok := t.lookup(end)
	if sok {
		if q := t.slots[si].backMerger(r, m.maxSectors); q != nil {
			i, _ := t.lookup(q.Sector)
			t.slots[i].requeue(starts, q)
			t.slots[si].cut(ends, q)
			q.BackMerge(r)
			if t.add(end, ei, eok, ends, q) {
				si, _ = t.lookup(start)
			}
			t.dropIfEmpty(si)
			return q
		}
	}
	if eok {
		if q := t.slots[ei].frontMerger(r, m.maxSectors); q != nil {
			i, _ := t.lookup(q.End())
			t.slots[i].requeue(ends, q)
			t.slots[ei].cut(starts, q)
			q.FrontMerge(r)
			if t.add(start, si, sok, starts, q) {
				ei, _ = t.lookup(end)
			}
			t.dropIfEmpty(ei)
			return q
		}
	}
	if t.add(start, si, sok, starts, r) || ei == si {
		// Inserting start moved every slot, or took the empty slot
		// end's probe stopped on.
		ei, _ = t.lookup(end)
	}
	t.add(end, ei, eok, ends, r)
	return nil
}

// remove deletes r's index entries at dispatch. It panics if r is missing
// from either of its buckets (elevator bookkeeping bug): the index would
// otherwise keep a stale candidate that a later request could merge into.
func (m *merger) remove(r *block.Request) {
	t := &m.index
	for k, key := range [2]int64{starts: r.Sector, ends: r.End()} {
		i, ok := t.lookup(key)
		if !ok || !t.slots[i].cut(k, r) {
			panic("iosched: removing request not in merge index")
		}
		t.dropIfEmpty(i)
	}
}
