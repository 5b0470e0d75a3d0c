package iosched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"adaptmr/internal/block"
)

// refMerger is the map-based merge index the open-addressed tables
// replaced, kept as the differential reference: same buckets, same
// freelist, with the two indexes held in Go maps.
type refMerger struct {
	byStart    map[int64]*mergeBucket
	byEnd      map[int64]*mergeBucket
	free       []*mergeBucket
	maxSectors int64
}

func newRefMerger(maxSectors int64) *refMerger {
	return &refMerger{
		byStart:    make(map[int64]*mergeBucket),
		byEnd:      make(map[int64]*mergeBucket),
		maxSectors: maxSectors,
	}
}

func (m *refMerger) bucket(idx map[int64]*mergeBucket, key int64) *mergeBucket {
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
}

// mergeCoverage counts the cases the differential test must reach.
type mergeCoverage struct {
	back, front, capped, shared int
}

func (w *mergerTwins) newPair(rng *rand.Rand) [2]*block.Request {
	op := block.Op(rng.Intn(2))
	sector := 4 * int64(rng.Intn(16))
	count := 4 * int64(1+rng.Intn(3))
	sync := rng.Intn(2) == 0
	stream := block.StreamID(1 + rng.Intn(2))
	p := [2]*block.Request{
		block.NewRequest(op, sector, count, sync, stream),
		block.NewRequest(op, sector, count, sync, stream),
	}
	id := len(w.ids) / 2
	w.ids[p[0]], w.ids[p[1]] = id, id
	return p
}

// bucketIDs lists b's entries in scan order as logical ids.
func (w *mergerTwins) bucketIDs(b *mergeBucket) []int {
	if b == nil {
		return nil
	}
	out := []int{w.ids[b.first]}
	for _, r := range b.rest {
		out = append(out, w.ids[r])
	}
	return out
}

// sameIndex checks that the table holds exactly the reference map's keys,
// each with the same bucket contents in the same order.
func (w *mergerTwins) sameIndex(name string, tab *mergeTable, ref map[int64]*mergeBucket) error {
	if tab.live != len(ref) {
		return fmt.Errorf("%s: table holds %d keys, reference %d", name, tab.live, len(ref))
	}
	for key, rb := range ref {
		got, want := w.bucketIDs(tab.get(key)), w.bucketIDs(rb)
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s[%d]: bucket %v, reference %v", name, key, got, want)
		}
		if len(want) > 1 {
			w.seen.shared++
		}
	}
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

// step applies one random operation to both mergers and compares them.
func (w *mergerTwins) step(rng *rand.Rand) error {
	switch k := rng.Intn(10); {
	case k < 4:
		p := w.newPair(rng)
		w.m.add(p[0])
		w.ref.add(p[1])
		w.queued = append(w.queued, p)
	case k < 6 && len(w.queued) > 0:
		i := rng.Intn(len(w.queued))
		p := w.queued[i]
		w.queued = append(w.queued[:i], w.queued[i+1:]...)
		w.m.remove(p[0])
		w.ref.remove(p[1])
	default:
		p := w.newPair(rng)
		capped := w.capped(p[0])
		got, want := w.m.tryMerge(p[0]), w.ref.tryMerge(p[1])
		if (got == nil) != (want == nil) || (got != nil && w.ids[got] != w.ids[want]) {
			return fmt.Errorf("tryMerge(%v) = %v, reference %v", p[0], got, want)
		}
		switch {
		case got == nil && capped:
			w.seen.capped++
		case got != nil && got.Sector == p[0].Sector:
			w.seen.front++
		case got != nil:
			w.seen.back++
		}
		if got == nil && rng.Intn(2) == 0 {
			w.m.add(p[0])
			w.ref.add(p[1])
			w.queued = append(w.queued, p)
		}
	}
	if err := w.sameIndex("byStart", &w.m.byStart, w.ref.byStart); err != nil {
		return err
	}
	return w.sameIndex("byEnd", &w.m.byEnd, w.ref.byEnd)
}

// TestQuickMergerMatchesReference drives random add, remove and tryMerge
// sequences through the open-addressed merger and the map-based reference
// over a small sector space — so keys are shared, buckets hold several
// entries, the MaxSectors cap rejects merges, and both back and front
// merges happen — and requires the same merge winner and the same bucket
// contents, in order, under every key after every operation.
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
	if seen.back == 0 || seen.front == 0 || seen.capped == 0 || seen.shared == 0 {
		t.Fatalf("sequences missed a case: %+v", seen)
	}
}

// checkTable requires tab to hold exactly want, every key reachable from
// its home slot, and no key stored twice.
func checkTable(t *testing.T, tab *mergeTable, want map[int64]*mergeBucket) {
	t.Helper()
	if tab.live != len(want) {
		t.Fatalf("table holds %d keys, want %d", tab.live, len(want))
	}
	used := 0
	for _, s := range tab.slots {
		if s.key != emptyKey {
			used++
			if want[s.key] == nil {
				t.Fatalf("table holds deleted key %d", s.key)
			}
		}
	}
	if used != len(want) {
		t.Fatalf("%d slots in use for %d keys", used, len(want))
	}
	for k, b := range want {
		if got := tab.get(k); got != b {
			t.Fatalf("key %d not found after deletions", k)
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
func TestMergeTableDeleteWraps(t *testing.T) {
	tab := newMergeTable(mergeTableMinBits)
	want := map[int64]*mergeBucket{}
	put := func(k int64) {
		b := &mergeBucket{}
		want[k] = b
		tab.put(k, b)
	}
	del := func(k int64) {
		tab.deleteAt(tab.find(k))
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
		put(k)
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
		put(k)
		if k%3 == 0 {
			del(k - 1)
		}
		checkTable(t, &tab, want)
	}
	last = len(tab.slots) - 1
	wrapped := keysHomedAt(&tab, last, 3, 5000)
	for _, k := range wrapped {
		put(k)
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
// allocations once warm: a cycle that indexes 64 requests, probes 64
// adjacent requests that may not merge (another stream), and removes the
// 64 reuses the tables' slots and the bucket freelist.
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
			m.add(r)
		}
		for _, r := range probes {
			if m.tryMerge(r) != nil {
				merged++
			}
		}
		for _, r := range queued {
			m.remove(r)
		}
	}
	cycle() // grow the tables and stock the bucket freelist
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("warm merger cycle allocates %v objects, want 0", a)
	}
	if merged != 0 {
		t.Fatalf("%d cross-stream probes merged", merged)
	}
}
