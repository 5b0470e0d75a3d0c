package iosched

import (
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

func TestRegistry(t *testing.T) {
	p := DefaultParams()
	for _, name := range Names {
		e, err := New(name, p)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("Name() = %q, want %q", e.Name(), name)
		}
	}
	if _, err := New("elevator", p); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestShortCodes(t *testing.T) {
	for _, name := range Names {
		code := ShortCode(name)
		back, err := FromShortCode(code)
		if err != nil || back != name {
			t.Fatalf("round trip %q -> %q -> %q (%v)", name, code, back, err)
		}
	}
	if _, err := FromShortCode("x"); err == nil {
		t.Fatal("bad code accepted")
	}
	if ShortCode("bogus") != "?" {
		t.Fatal("bogus name should render '?'")
	}
}

func TestSortedListInsertAndNext(t *testing.T) {
	var l sortedList
	for _, s := range []int64{50, 10, 30, 70} {
		l.insert(block.NewRequest(Op(), s, 4, true, 1))
	}
	if l.len() != 4 {
		t.Fatalf("len = %d", l.len())
	}
	if r := l.next(0); r.Sector != 10 {
		t.Fatalf("next(0) = %d", r.Sector)
	}
	if r := l.next(31); r.Sector != 50 {
		t.Fatalf("next(31) = %d", r.Sector)
	}
	// Wrap past the end.
	if r := l.next(100); r.Sector != 10 {
		t.Fatalf("next(100) = %d (no wrap)", r.Sector)
	}
	if l.front().Sector != 10 {
		t.Fatalf("front = %d", l.front().Sector)
	}
}

// Op returns Read; it exists to make literals shorter in tests.
func Op() block.Op { return block.Read }

func TestSortedListRemove(t *testing.T) {
	var l sortedList
	rs := make([]*block.Request, 0, 5)
	for _, s := range []int64{10, 20, 30, 40, 50} {
		r := block.NewRequest(block.Read, s, 4, true, 1)
		rs = append(rs, r)
		l.insert(r)
	}
	l.remove(rs[2])
	if l.len() != 4 {
		t.Fatalf("len = %d", l.len())
	}
	if r := l.next(25); r.Sector != 40 {
		t.Fatalf("next(25) = %d after removal", r.Sector)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("removing absent request did not panic")
		}
	}()
	l.remove(rs[2])
}

func TestFIFO(t *testing.T) {
	var f fifo
	a := block.NewRequest(block.Read, 10, 4, true, 1)
	b := block.NewRequest(block.Read, 20, 4, true, 1)
	f.push(a, 100)
	f.push(b, 200)
	if r, deadline := f.front(); r != a || deadline != 100 {
		t.Fatal("front is not oldest")
	}
	f.remove(a)
	if r, deadline := f.front(); r != b || deadline != 200 || f.len() != 1 {
		t.Fatal("remove broke fifo")
	}
}

func TestMergerBackAndFront(t *testing.T) {
	m := newMerger(1024)
	a := block.NewRequest(block.Write, 100, 8, false, 1)
	if m.mergeOrAdd(a) != nil {
		t.Fatal("merged into an empty index")
	}
	// Back merge.
	b := block.NewRequest(block.Write, 108, 8, false, 1)
	if got := m.mergeOrAdd(b); got != a {
		t.Fatalf("back merge returned %v", got)
	}
	if a.Count != 16 {
		t.Fatalf("count = %d", a.Count)
	}
	// Front merge.
	c := block.NewRequest(block.Write, 92, 8, false, 1)
	if got := m.mergeOrAdd(c); got != a {
		t.Fatalf("front merge returned %v", got)
	}
	if a.Sector != 92 || a.Count != 24 {
		t.Fatalf("extent = %d+%d", a.Sector, a.Count)
	}
	// Non-adjacent request does not merge.
	d := block.NewRequest(block.Write, 200, 8, false, 1)
	if m.mergeOrAdd(d) != nil {
		t.Fatal("gap merged")
	}
	// After remove, no merging with it.
	m.remove(a)
	e := block.NewRequest(block.Write, 116, 8, false, 1)
	if m.mergeOrAdd(e) != nil {
		t.Fatal("merged with removed request")
	}
}

func TestMergerRespectsCap(t *testing.T) {
	m := newMerger(16)
	a := block.NewRequest(block.Write, 0, 12, false, 1)
	m.mergeOrAdd(a)
	b := block.NewRequest(block.Write, 12, 8, false, 1)
	if m.mergeOrAdd(b) != nil {
		t.Fatal("merge exceeded MaxSectors")
	}
}

func TestPairParsing(t *testing.T) {
	cases := []struct {
		in   string
		want Pair
	}{
		{"ad", Pair{Anticipatory, Deadline}},
		{"cc", Pair{CFQ, CFQ}},
		{"(anticipatory, deadline)", Pair{Anticipatory, Deadline}},
		{"NOOP,cfq", Pair{Noop, CFQ}},
		{"as, dl", Pair{Anticipatory, Deadline}},
	}
	for _, c := range cases {
		got, err := ParsePair(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePair(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, bad := range []string{"", "x", "zz", "a,b,c", "cfq"} {
		if _, err := ParsePair(bad); err == nil {
			t.Errorf("ParsePair(%q) accepted", bad)
		}
	}
}

func TestPairStringAndCode(t *testing.T) {
	p := Pair{Anticipatory, Deadline}
	if p.String() != "(Anticipatory, Deadline)" {
		t.Fatalf("String = %q", p.String())
	}
	if p.Code() != "ad" {
		t.Fatalf("Code = %q", p.Code())
	}
	if !p.Valid() {
		t.Fatal("valid pair reported invalid")
	}
	if (Pair{"bogus", CFQ}).Valid() {
		t.Fatal("invalid pair reported valid")
	}
}

func TestAllPairs(t *testing.T) {
	ps := AllPairs()
	if len(ps) != 16 {
		t.Fatalf("len = %d", len(ps))
	}
	seen := map[Pair]bool{}
	for _, p := range ps {
		if seen[p] {
			t.Fatalf("duplicate %v", p)
		}
		seen[p] = true
	}
	if ps[0] != DefaultPair {
		t.Fatalf("first pair = %v, want default", ps[0])
	}
}

// drain pulls every request out of a scheduler, simulating instant service,
// and returns the dispatch order.
func drain(t *testing.T, e block.Elevator, eng *sim.Engine) []*block.Request {
	t.Helper()
	var out []*block.Request
	for guard := 0; ; guard++ {
		if guard > 100000 {
			t.Fatal("scheduler did not drain")
		}
		r, wake := e.Dispatch(eng.Now())
		if r == nil {
			if wake <= eng.Now() {
				if e.Pending() > 0 {
					t.Fatalf("scheduler stalled with %d pending", e.Pending())
				}
				return out
			}
			eng.RunUntil(wake)
			continue
		}
		out = append(out, r)
		e.Completed(r, eng.Now())
	}
}
