package iosched

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"adaptmr/internal/block"
)

// refMerger is the map-based merge index the open-addressed table
// replaced, kept as the differential reference: the same buckets in two
// Go maps, one by start and one by end sector, with a merge removing and
// re-adding both keys of the grown request.
type refMerger struct {
	byStart    map[int64]*refBucket
	byEnd      map[int64]*refBucket
	free       []*refBucket
	maxSectors int64
}

// refBucket is the reference's bucket: a first request and a
// swap-remove rest, which evolves like a plain append/swap-remove slice
// whose slot 0 is first.
type refBucket struct {
	first *block.Request
	rest  []*block.Request
}

func (b *refBucket) add(r *block.Request) {
	if b.first == nil && len(b.rest) == 0 {
		b.first = r
		return
	}
	b.rest = append(b.rest, r)
}

// cut removes r, moving the last entry into its slot.
func (b *refBucket) cut(r *block.Request) {
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

func newRefMerger(maxSectors int64) *refMerger {
	return &refMerger{
		byStart:    make(map[int64]*refBucket),
		byEnd:      make(map[int64]*refBucket),
		maxSectors: maxSectors,
	}
}

func (m *refMerger) bucket(idx map[int64]*refBucket, key int64) *refBucket {
	b := idx[key]
	if b == nil {
		if n := len(m.free); n > 0 {
			b = m.free[n-1]
			m.free[n-1] = nil
			m.free = m.free[:n-1]
		} else {
			b = &refBucket{}
		}
		idx[key] = b
	}
	return b
}

func (m *refMerger) add(r *block.Request) {
	m.bucket(m.byStart, r.Sector).add(r)
	m.bucket(m.byEnd, r.End()).add(r)
}

func (m *refMerger) remove(r *block.Request) {
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

func (m *refMerger) tryMerge(r *block.Request) *block.Request {
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

// mergerTwins drives a merger and a refMerger through the same operations.
// Merges mutate requests, so each side gets its own copy of every request;
// ids map a request on either side back to its logical identity.
type mergerTwins struct {
	m      *merger
	ref    *refMerger
	ids    map[*block.Request]int
	queued [][2]*block.Request // [merger side, reference side]
	seen   *mergeCoverage
	// overflowed holds the keys whose slot had an overflow after the
	// last operation.
	overflowed map[int64]bool
}

// mergeCoverage counts the cases the differential test must reach:
// sameSlot is a miss whose two lookups stopped on the same empty slot,
// grown a miss that grew the table, firstOfThree the removal of the
// first of a bucket of three or more, and emptied an overflow released
// after holding requests.
type mergeCoverage struct {
	back, front, capped, shared, sameSlot, grown, firstOfThree, emptied int
}

func (w *mergerTwins) newPair(rng *rand.Rand) [2]*block.Request {
	op := block.Op(rng.Intn(2))
	sector := 4 * int64(rng.Intn(16))
	count := 4 * int64(1+rng.Intn(3))
	sync := rng.Intn(2) == 0
	stream := block.StreamID(1 + rng.Intn(2))
	return w.pair(op, sector, count, sync, stream)
}

// pair returns one logical request as a copy for each side.
func (w *mergerTwins) pair(op block.Op, sector, count int64, sync bool, stream block.StreamID) [2]*block.Request {
	p := [2]*block.Request{
		block.NewRequest(op, sector, count, sync, stream),
		block.NewRequest(op, sector, count, sync, stream),
	}
	id := len(w.ids) / 2
	w.ids[p[0]], w.ids[p[1]] = id, id
	return p
}

// bucketIDs lists a bucket's requests, first then rest, as logical ids.
func (w *mergerTwins) bucketIDs(first *block.Request, rest []*block.Request) []int {
	if first == nil {
		return nil
	}
	out := []int{w.ids[first]}
	for _, r := range rest {
		out = append(out, w.ids[r])
	}
	return out
}

// refIDs lists the reference bucket b as logical ids.
func (w *mergerTwins) refIDs(b *refBucket) []int {
	if b == nil {
		return nil
	}
	return w.bucketIDs(b.first, b.rest)
}

// sameIndex checks that the table holds exactly the union of the
// reference maps' keys, that each key's starts and ends buckets hold the
// reference byStart and byEnd buckets' contents in the same order, and
// that a slot has an overflow exactly when one of its buckets holds two
// or more requests.
func (w *mergerTwins) sameIndex() error {
	keys := map[int64]bool{}
	for k := range w.ref.byStart {
		keys[k] = true
	}
	for k := range w.ref.byEnd {
		keys[k] = true
	}
	tab := &w.m.index
	used := 0
	for _, s := range tab.slots {
		if s.key != emptyKey {
			used++
		}
	}
	if used != len(keys) || tab.live != len(keys) {
		return fmt.Errorf("table holds %d keys (live %d), reference %d", used, tab.live, len(keys))
	}
	overflowed := map[int64]bool{}
	for key := range keys {
		i, ok := tab.lookup(key)
		if !ok {
			return fmt.Errorf("key %d missing from the table", key)
		}
		s := &tab.slots[i]
		for _, c := range []struct {
			name string
			k    int
			ref  *refBucket
		}{{"starts", starts, w.ref.byStart[key]}, {"ends", ends, w.ref.byEnd[key]}} {
			got, want := w.bucketIDs(s.first[c.k], s.rest(c.k)), w.refIDs(c.ref)
			if !slices.Equal(got, want) {
				return fmt.Errorf("%s[%d]: bucket %v, reference %v", c.name, key, got, want)
			}
			if len(want) > 1 {
				w.seen.shared++
			}
		}
		if further := len(s.rest(starts)) + len(s.rest(ends)); (s.more != nil) != (further > 0) {
			return fmt.Errorf("key %d: overflow %p holds %d requests", key, s.more, further)
		}
		if s.more != nil {
			overflowed[key] = true
		}
	}
	for key := range w.overflowed {
		if !overflowed[key] {
			w.seen.emptied++
		}
	}
	w.overflowed = overflowed
	return nil
}

// capped reports whether some queued request could take r but for the
// MaxSectors cap.
func (w *mergerTwins) capped(r *block.Request) bool {
	for _, p := range w.queued {
		q := p[0]
		if q.Op == r.Op && q.Stream == r.Stream && q.IsSyncFull() == r.IsSyncFull() &&
			(q.End() == r.Sector || r.End() == q.Sector) && q.Count+r.Count > w.m.maxSectors {
			return true
		}
	}
	return false
}

// offer gives p to both mergers, mergeOrAdd on the merger against
// tryMerge then add on a miss on the reference, and returns the request
// p merged into, or nil.
func (w *mergerTwins) offer(p [2]*block.Request) (*block.Request, error) {
	got, want := w.m.mergeOrAdd(p[0]), w.ref.tryMerge(p[1])
	if want == nil {
		w.ref.add(p[1])
		w.queued = append(w.queued, p)
	}
	if (got == nil) != (want == nil) || (got != nil && w.ids[got] != w.ids[want]) {
		return nil, fmt.Errorf("mergeOrAdd(%v) = %v, reference %v", p[0], got, want)
	}
	return got, nil
}

// step applies one random operation to both mergers and compares them:
// mergeOrAdd on the merger against tryMerge, then add on a miss, on the
// reference, or the removal of a queued request from both.
func (w *mergerTwins) step(rng *rand.Rand) error {
	if len(w.queued) > 0 && rng.Intn(10) < 3 {
		i := rng.Intn(len(w.queued))
		p := w.queued[i]
		w.queued = append(w.queued[:i], w.queued[i+1:]...)
		for k, key := range [2]int64{starts: p[0].Sector, ends: p[0].End()} {
			j, _ := w.m.index.lookup(key)
			if s := &w.m.index.slots[j]; s.first[k] == p[0] && len(s.rest(k)) >= 2 {
				w.seen.firstOfThree++
			}
		}
		w.m.remove(p[0])
		w.ref.remove(p[1])
		return w.sameIndex()
	}
	p := w.newPair(rng)
	capped := w.capped(p[0])
	si, sok := w.m.index.lookup(p[0].Sector)
	ei, eok := w.m.index.lookup(p[0].End())
	slots := len(w.m.index.slots)
	got, err := w.offer(p)
	if err != nil {
		return err
	}
	switch {
	case got == nil:
		if capped {
			w.seen.capped++
		}
		if !sok && !eok && si == ei {
			w.seen.sameSlot++
		}
		if len(w.m.index.slots) > slots {
			w.seen.grown++
		}
	case got.Sector == p[0].Sector:
		w.seen.front++
	default:
		w.seen.back++
	}
	return w.sameIndex()
}

// TestQuickMergerMatchesReference drives random mergeOrAdd and remove
// sequences through the one-table merger and the map-based reference over
// a small sector space — so keys are shared, buckets hold several
// entries, a bucket of three loses its first, overflows fill and are
// released, the MaxSectors cap rejects merges, both back and front merges
// happen, a miss's two lookups stop on the same empty slot and misses
// grow the table — and requires the same merge winner and the same
// bucket contents, in order, under every key after every operation.
func TestQuickMergerMatchesReference(t *testing.T) {
	var seen mergeCoverage
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := &mergerTwins{m: newMerger(16), ref: newRefMerger(16), ids: map[*block.Request]int{}, seen: &seen}
		for i := 0; i < 400; i++ {
			if err := w.step(rng); err != nil {
				t.Logf("seed %d, op %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	t.Logf("coverage: %+v", seen)
	if seen.back == 0 || seen.front == 0 || seen.capped == 0 || seen.shared == 0 || seen.sameSlot == 0 ||
		seen.grown == 0 || seen.firstOfThree == 0 || seen.emptied == 0 {
		t.Fatalf("sequences missed a case: %+v", seen)
	}
}

// TestMergeGrowsTableMidMerge pins back and front merges whose moved key
// is new while the table sits at its load limit: inserting the key grows
// the table, which moves every slot, and the emptied old key must still be
// found and deleted. Several layouts keep a stale slot from landing on the
// right one by chance.
func TestMergeGrowsTableMidMerge(t *testing.T) {
	for _, front := range []bool{false, true} {
		for base := int64(1000); base < 1010; base++ {
			w := &mergerTwins{m: newMerger(1024), ref: newRefMerger(1024), ids: map[*block.Request]int{}, seen: &mergeCoverage{}}
			// Six disjoint requests index twelve keys, the most 16 slots
			// hold under 3/4 load.
			for i := int64(0); i < 6; i++ {
				if _, err := w.offer(w.pair(block.Write, base+100*i, 8, false, 1)); err != nil {
					t.Fatal(err)
				}
			}
			r := w.pair(block.Write, base+8, 8, false, 1) // appends to the first
			if front {
				r = w.pair(block.Write, base-8, 8, false, 1) // prepends to it
			}
			slots := len(w.m.index.slots)
			got, err := w.offer(r)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil || len(w.m.index.slots) == slots {
				t.Fatalf("front %v, base %d: merged into %v, table %d -> %d slots; want a merge that grows it", front, base, got, slots, len(w.m.index.slots))
			}
			if err := w.sameIndex(); err != nil {
				t.Fatalf("front %v, base %d: %v", front, base, err)
			}
		}
	}
}

// put inserts key, which must be absent, with slot contents s, growing
// the table as needed.
func put(tab *mergeTable, key int64, s mergeSlot) {
	tab.makeRoom()
	i, _ := tab.lookup(key)
	tab.insertAt(i, key)
	tab.slots[i] = s
}

// checkTable requires tab to hold exactly want, every key reachable from
// its home slot with the contents it was put with, and no key stored
// twice.
func checkTable(t *testing.T, tab *mergeTable, want map[int64]mergeSlot) {
	t.Helper()
	if tab.live != len(want) {
		t.Fatalf("table holds %d keys, want %d", tab.live, len(want))
	}
	used := 0
	for _, s := range tab.slots {
		if s.key != emptyKey {
			used++
			if _, ok := want[s.key]; !ok {
				t.Fatalf("table holds deleted key %d", s.key)
			}
		}
	}
	if used != len(want) {
		t.Fatalf("%d slots in use for %d keys", used, len(want))
	}
	for k, s := range want {
		if i, ok := tab.lookup(k); !ok || tab.slots[i] != s {
			t.Fatalf("key %d not found with its contents after deletions", k)
		}
	}
}

// keysHomedAt returns n keys, starting the search at from, whose home
// slot is slot.
func keysHomedAt(tab *mergeTable, slot, n int, from int64) []int64 {
	var keys []int64
	for k := from; len(keys) < n; k++ {
		if tab.home(k) == slot {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestMergeTableDeleteWraps pins backward-shift deletion where a probe run
// wraps past the end of the slot array, before and after the table grows.
// Every key carries its own buckets, and every third an overflow, so a
// shift or a rehash must move a slot's whole contents with its key.
func TestMergeTableDeleteWraps(t *testing.T) {
	tab := newMergeTable(mergeTableMinBits)
	want := map[int64]mergeSlot{}
	add := func(k int64) {
		s := mergeSlot{key: k}
		s.first[starts] = block.NewRequest(block.Write, k, 8, false, 1)
		s.first[ends] = block.NewRequest(block.Read, k, 8, true, 1)
		if k%3 == 0 {
			s.more = &mergeOverflow{starts: {block.NewRequest(block.Read, k, 8, false, 2)}}
		}
		want[k] = s
		put(&tab, k, s)
	}
	del := func(k int64) {
		i, ok := tab.lookup(k)
		if !ok {
			t.Fatalf("key %d missing before deletion", k)
		}
		tab.deleteAt(i)
		delete(want, k)
		checkTable(t, &tab, want)
	}

	// a and c are homed at the last slot, b at slot 0 and d at slot 1:
	// a takes the last slot, b slot 0, c wraps to slot 1 and d to slot 2.
	last := len(tab.slots) - 1
	ac := keysHomedAt(&tab, last, 2, 0)
	a, c := ac[0], ac[1]
	b := keysHomedAt(&tab, 0, 1, 0)[0]
	d := keysHomedAt(&tab, 1, 1, 0)[0]
	for _, k := range []int64{a, b, c, d} {
		add(k)
	}
	checkTable(t, &tab, want)
	if tab.slots[last].key != a || tab.slots[0].key != b || tab.slots[1].key != c || tab.slots[2].key != d {
		t.Fatalf("unexpected layout before deletion: %v", tab.slots)
	}
	// Deleting a opens a hole at the last slot. b sits at its home and
	// stays; c shifts back across the wrap into the last slot, and d
	// follows into slot 1.
	del(a)
	if tab.slots[last].key != c || tab.slots[0].key != b || tab.slots[1].key != d || tab.slots[2].key != emptyKey {
		t.Fatalf("unexpected layout after deletion: %v", tab.slots)
	}

	// Grow the table twice, deleting as keys go in, then wrap a run at the
	// new last slot and delete its head.
	for k := int64(1000); len(tab.slots) < 4<<mergeTableMinBits; k++ {
		add(k)
		if k%3 == 0 {
			del(k - 1)
		}
		checkTable(t, &tab, want)
	}
	last = len(tab.slots) - 1
	wrapped := keysHomedAt(&tab, last, 3, 5000)
	for _, k := range wrapped {
		add(k)
	}
	checkTable(t, &tab, want)
	del(wrapped[0])
	for k := range want {
		del(k)
	}
	if tab.live != 0 {
		t.Fatalf("table holds %d keys after deleting all", tab.live)
	}
}

// TestMergerSteadyStateZeroAlloc pins the merge index's churn at zero
// allocations once warm: a cycle that indexes 64 requests, offers 64
// adjacent requests that may not merge (another stream) and so are
// indexed too, and removes all 128 reuses the table's slots. An adjacent
// probe shares a key with its queued neighbour but not a bucket, so no
// slot needs an overflow.
func TestMergerSteadyStateZeroAlloc(t *testing.T) {
	m := newMerger(DefaultParams().MaxSectors)
	queued := make([]*block.Request, 64)
	probes := make([]*block.Request, 64)
	for i := range queued {
		base := 64 * int64(i+1)
		queued[i] = block.NewRequest(block.Write, base, 8, false, 1)
		if i%2 == 0 {
			probes[i] = block.NewRequest(block.Write, base+8, 8, false, 2) // back-adjacent
		} else {
			probes[i] = block.NewRequest(block.Write, base-8, 8, false, 2) // front-adjacent
		}
	}
	merged := 0
	cycle := func() {
		for _, r := range queued {
			m.mergeOrAdd(r)
		}
		for _, r := range probes {
			if m.mergeOrAdd(r) != nil {
				merged++
			}
		}
		for _, r := range queued {
			m.remove(r)
		}
		for _, r := range probes {
			m.remove(r)
		}
	}
	cycle() // grow the table
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("warm merger cycle allocates %v objects, want 0", a)
	}
	if merged != 0 {
		t.Fatalf("%d cross-stream probes merged", merged)
	}
	if m.index.live != 0 {
		t.Fatalf("table holds %d keys after removing every request", m.index.live)
	}
}

// mergeSink keeps a measured merger on the heap, so the count below does
// not depend on escape analysis.
var mergeSink *merger

// TestMergerIndexAllocatesOnlyDoublings pins that indexing allocates
// nothing per key: a fresh merger that indexes n disjoint requests, 2n
// keys whose buckets hold one request each, allocates the merger, its
// first slot array and one array per doubling, and nothing else.
func TestMergerIndexAllocatesOnlyDoublings(t *testing.T) {
	reqs := make([]*block.Request, 64)
	for i := range reqs {
		reqs[i] = block.NewRequest(block.Write, 64*int64(i), 8, false, 1)
	}
	merged := 0
	allocs := testing.AllocsPerRun(20, func() {
		mergeSink = newMerger(DefaultParams().MaxSectors)
		for _, r := range reqs {
			if mergeSink.mergeOrAdd(r) != nil {
				merged++
			}
		}
	})
	if merged != 0 || mergeSink.index.live != 2*len(reqs) {
		t.Fatalf("%d disjoint requests merged %d times into %d keys", len(reqs), merged, mergeSink.index.live)
	}
	doublings := bits.Len(uint(len(mergeSink.index.slots))) - 1 - mergeTableMinBits
	if want := float64(2 + doublings); allocs != want {
		t.Fatalf("fresh merger indexing %d requests allocates %v objects, want %v: the merger, its first table and %d doublings",
			len(reqs), allocs, want, doublings)
	}
}

// TestMergerMissingRequestPanics pins that removing a request missing
// from either of its buckets panics, as sortedList and fifo do, instead
// of leaving a stale candidate that a later request could merge into; so
// does a merge into a request missing from its other bucket.
func TestMergerMissingRequestPanics(t *testing.T) {
	newReq := func(stream block.StreamID) *block.Request {
		return block.NewRequest(block.Write, 64, 8, false, stream)
	}
	for _, c := range []struct {
		name string
		run  func(m *merger)
	}{
		{"never indexed", func(m *merger) { m.remove(newReq(1)) }},
		{"removed twice", func(m *merger) {
			r := newReq(1)
			m.mergeOrAdd(r)
			m.remove(r)
			m.remove(r)
		}},
		{"keys held by another request", func(m *merger) {
			m.mergeOrAdd(newReq(1))
			m.remove(newReq(2))
		}},
		{"extent moved behind the index", func(m *merger) {
			r := newReq(1)
			m.mergeOrAdd(r)
			r.Count += 8 // its start bucket still holds it, its end bucket not
			m.remove(r)
		}},
		{"merge after the start moved behind the index", func(m *merger) {
			q := newReq(1)
			m.mergeOrAdd(q)
			q.Sector, q.Count = q.Sector-8, q.Count+8 // same end, new start
			m.mergeOrAdd(block.NewRequest(block.Write, q.End(), 8, false, 1))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "not in merge index") {
					t.Fatalf("no panic on a missing request (recovered %q)", msg)
				}
			}()
			c.run(newMerger(DefaultParams().MaxSectors))
		})
	}
}
