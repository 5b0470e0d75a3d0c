package block

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"adaptmr/internal/sim"
)

// poolElv is a trivial FIFO elevator for pool lifecycle tests.
type poolElv struct{ q []*Request }

func (e *poolElv) Name() string                 { return "noop" }
func (e *poolElv) Add(r *Request, _ sim.Time)   { e.q = append(e.q, r) }
func (e *poolElv) Pending() int                 { return len(e.q) }
func (e *poolElv) Completed(*Request, sim.Time) {}
func (e *poolElv) Dispatch(_ sim.Time) (*Request, sim.Time) {
	if len(e.q) == 0 {
		return nil, 0
	}
	r := e.q[0]
	e.q = e.q[1:]
	return r, 0
}

// poolDev completes synchronously.
type poolDev struct{}

func (poolDev) Service(r *Request, done func(*Request)) { done(r) }

func TestPoolRecyclesThroughQueue(t *testing.T) {
	eng := sim.New(1)
	p := NewPool(false, nil)
	q := NewQueue(eng, &poolElv{}, poolDev{}, 1)

	first := p.Get(Read, 0, 8, false, 1)
	var completed int
	first.OnComplete = func(*Request) { completed++ }
	q.Submit(first)
	eng.Run()
	if completed != 1 {
		t.Fatalf("completions = %d, want 1", completed)
	}

	second := p.Get(Read, 100, 8, false, 1)
	if second != first {
		t.Fatal("fast pool did not recycle the completed request")
	}
	if second.Sector != 100 || second.state != stateNew || second.OnComplete != nil {
		t.Fatalf("recycled request not reset: %+v", second)
	}
	st := p.Stats()
	if st.Gets != 2 || st.Reuses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want Gets=2 Reuses=1 Puts=1", st)
	}
}

func TestPoolFreesMergedChildren(t *testing.T) {
	eng := sim.New(1)
	p := NewPool(false, nil)
	elv := &mergingElv{max: 1024}
	q := NewQueue(eng, elv, poolDev{}, 1)

	// Two contiguous same-stream requests; the elevator back-merges the
	// second into the first. Both must return to the pool at completion.
	a := p.Get(Write, 0, 8, false, 1)
	b := p.Get(Write, 8, 8, false, 1)
	q.Submit(a)
	q.Submit(b)
	eng.Run()
	if st := p.Stats(); st.Puts != 2 {
		t.Fatalf("Puts = %d, want 2 (parent + merged child)", st.Puts)
	}
	if len(p.free) != 2 {
		t.Fatalf("freelist len = %d, want 2", len(p.free))
	}
}

// mergingElv back- or front-merges contiguous requests while they wait.
// Dispatch shifts the queue in place, so once warm it allocates nothing.
type mergingElv struct {
	q   []*Request
	max int64
}

func (e *mergingElv) Name() string { return "noop" }
func (e *mergingElv) Add(r *Request, _ sim.Time) {
	for _, cur := range e.q {
		switch {
		case cur.CanBackMerge(r, e.max):
			cur.BackMerge(r)
			return
		case cur.CanFrontMerge(r, e.max):
			cur.FrontMerge(r)
			return
		}
	}
	e.q = append(e.q, r)
}
func (e *mergingElv) Pending() int                 { return len(e.q) }
func (e *mergingElv) Completed(*Request, sim.Time) {}
func (e *mergingElv) Dispatch(_ sim.Time) (*Request, sim.Time) {
	if len(e.q) == 0 {
		return nil, 0
	}
	r := e.q[0]
	e.q = e.q[:copy(e.q, e.q[1:])]
	return r, 0
}

func TestCheckedPoolDetectsDoubleFree(t *testing.T) {
	var violations []string
	p := NewPool(true, func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	})
	r := p.Get(Read, 0, 8, false, 1)
	r.state = stateDone
	p.Put(r)
	if len(violations) != 0 {
		t.Fatalf("first Put reported violations: %v", violations)
	}
	p.Put(r)
	if len(violations) != 1 {
		t.Fatalf("double free not reported: %v", violations)
	}
	if st := p.Stats(); st.DoubleFrees != 1 {
		t.Fatalf("DoubleFrees = %d, want 1", st.DoubleFrees)
	}
	// Checked mode never recycles: the next Get must be fresh memory.
	if p.Get(Read, 0, 8, false, 1) == r {
		t.Fatal("checked pool recycled a freed request")
	}
}

func TestCheckedPoolPanicsWithoutReporter(t *testing.T) {
	p := NewPool(true, nil)
	r := p.Get(Read, 0, 8, false, 1)
	r.state = stateDone
	p.Put(r)
	defer func() {
		if recover() == nil {
			t.Fatal("double free without reporter did not panic")
		}
	}()
	p.Put(r)
}

func TestFreedRequestResubmitPanics(t *testing.T) {
	eng := sim.New(1)
	p := NewPool(true, func(string, ...any) {})
	q := NewQueue(eng, &poolElv{}, poolDev{}, 1)
	r := p.Get(Read, 0, 8, false, 1)
	q.Submit(r)
	eng.Run() // completes and frees r (checked: quarantined, not recycled)
	if r.state != stateFreed {
		t.Fatalf("state = %d after completion, want stateFreed", r.state)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("submitting a freed request did not panic")
		}
	}()
	q.Submit(r)
}

func TestPoolRejectsForeignRequest(t *testing.T) {
	a := NewPool(false, nil)
	var violations int
	b := NewPool(true, func(string, ...any) { violations++ })
	r := a.Get(Read, 0, 8, false, 1)
	r.state = stateDone
	b.Put(r)
	if violations != 1 {
		t.Fatalf("foreign-pool Put violations = %d, want 1", violations)
	}
	if len(b.free) != 0 {
		t.Fatal("foreign request landed on freelist")
	}
}

func TestUnpooledRequestsUnaffected(t *testing.T) {
	eng := sim.New(1)
	q := NewQueue(eng, &poolElv{}, poolDev{}, 1)
	r := NewRequest(Read, 0, 8, false, 1)
	q.Submit(r)
	eng.Run()
	if r.state != stateDone {
		t.Fatalf("state = %d, want stateDone", r.state)
	}
}

// requestField returns field i of the Request v holds, unexported fields
// included, as a settable value.
func requestField(v reflect.Value, i int) reflect.Value {
	f := v.Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// dirty sets every field of r but pool, which Put checks, to a non-zero
// value, as a previous use might have left it.
func dirty(t *testing.T, r *Request) {
	t.Helper()
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "pool" {
			continue
		}
		f := requestField(v, i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
			f.SetInt(7)
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			f.SetUint(1)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Func:
			f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value { return nil }))
		default:
			t.Fatalf("field %s: no dirty value for kind %v", name, f.Kind())
		}
	}
}

// TestPoolRecycledMatchesFresh walks every field of Request, the merge
// chain's links included: a request whose every field was left dirty by
// its previous use must come back from Get equal to a fresh request with
// the same arguments, so a field added later cannot leak from a previous
// use. A checked pool's Put drops the same references, so a quarantined
// request roots no callback or merge chain. Both Get paths must reject
// an extent no request may cover.
func TestPoolRecycledMatchesFresh(t *testing.T) {
	checked := NewPool(true, nil)
	q := checked.Get(Write, 8, 8, false, 1)
	dirty(t, q)
	checked.Put(q)
	qv := reflect.ValueOf(q).Elem()
	for i := 0; i < qv.NumField(); i++ {
		name := qv.Type().Field(i).Name
		f := requestField(qv, i)
		if k := f.Kind(); name != "pool" && (k == reflect.Pointer || k == reflect.Func) && !f.IsNil() {
			t.Errorf("%s: checked Put left it set", name)
		}
	}

	p := NewPool(false, nil)
	r := p.Get(Write, 8, 8, false, 1)
	dirty(t, r)
	p.Put(r)

	recycled := p.Get(Read, 64, 16, true, 3)
	fresh := p.Get(Read, 64, 16, true, 3)
	if recycled != r || fresh == r {
		t.Fatal("Get did not recycle the freed request, then allocate")
	}
	rv, fv := reflect.ValueOf(recycled).Elem(), reflect.ValueOf(fresh).Elem()
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		got, want := requestField(rv, i), requestField(fv, i)
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("%s: recycled %v, fresh %v", name, got, want)
		}
	}

	p.Put(recycled)
	for _, c := range []struct {
		sector, count int64
	}{{0, 0}, {0, -8}, {-1, 8}} {
		for _, stocked := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Get(%d+%d) with stocked freelist %v did not panic", c.sector, c.count, stocked)
					}
				}()
				if !stocked {
					NewPool(false, nil).Get(Read, c.sector, c.count, false, 1)
					return
				}
				p.Get(Read, c.sector, c.count, false, 1)
			}()
		}
	}
	if len(p.free) != 1 {
		t.Fatalf("freelist holds %d requests after rejected Gets, want 1", len(p.free))
	}
}
