package obs

import (
	"bufio"
	"io"
	"os"
	"sort"
	"strconv"

	"adaptmr/internal/sim"
)

// Arg is one key/value pair attached to a trace event. Construct with I,
// F or S. Values render deterministically, so traces of identical runs are
// byte-identical.
type Arg struct {
	Key  string
	kind uint8 // 0 int, 1 float, 2 string
	i    int64
	f    float64
	s    string
}

// I builds an integer argument.
func I(key string, v int64) Arg { return Arg{Key: key, kind: 0, i: v} }

// F builds a float argument.
func F(key string, v float64) Arg { return Arg{Key: key, kind: 1, f: v} }

// S builds a string argument.
func S(key, v string) Arg { return Arg{Key: key, kind: 2, s: v} }

// event phases (Chrome trace-event "ph" field).
const (
	phComplete   = 'X' // span with ts + dur
	phInstant    = 'i' // point event
	phAsyncBegin = 'b' // async span begin (id-matched)
	phAsyncEnd   = 'e' // async span end
	phMetadata   = 'M' // process_name / thread_name
)

type traceEvent struct {
	name string
	cat  string
	ph   byte
	ts   sim.Time
	dur  sim.Duration // phComplete only
	pid  int64
	tid  int64
	id   int64 // async events only
	args []Arg
}

// Tracer records span and instant events across the simulated stack and
// exports them as Chrome trace-event JSON. It is single-threaded, like the
// simulation engine driving it. A nil *Tracer discards everything.
type Tracer struct {
	chunks [][]traceEvent
	n      int
	nextID int64

	// argPool is the arena backing every event's args. Storing a copy —
	// rather than the caller's variadic slice — keeps the `args ...Arg`
	// parameter from escaping, so the per-call slice lives on the caller's
	// stack and argument storage amortizes to one allocation per ~4k args.
	argPool []Arg
}

// traceChunkShift sizes event storage chunks (4096 events, ~400 KB).
// Chunked storage appends without ever copying recorded events — the
// growslice/memmove churn of one contiguous slice dominated recording
// cost on large traces.
const (
	traceChunkShift = 12
	traceChunkSize  = 1 << traceChunkShift
)

// add appends one event. Every chunk except the last is exactly full,
// which is what makes at()'s shift/mask indexing valid.
func (t *Tracer) add(ev traceEvent) {
	*t.slot() = ev
}

// slot extends the chunk list by one zeroed event and returns it, so
// recorders fill fields in place instead of copying a ~100-byte struct
// through a literal (chunks are append-only, so the extended element is
// still in its make-time zero state).
func (t *Tracer) slot() *traceEvent {
	k := len(t.chunks) - 1
	if k < 0 || len(t.chunks[k]) == traceChunkSize {
		t.chunks = append(t.chunks, make([]traceEvent, 0, traceChunkSize))
		k++
	}
	c := t.chunks[k]
	c = c[:len(c)+1]
	t.chunks[k] = c
	t.n++
	return &c[len(c)-1]
}

// at returns the i-th recorded event.
func (t *Tracer) at(i int) *traceEvent {
	return &t.chunks[i>>traceChunkShift][i&(traceChunkSize-1)]
}

// forEach visits every recorded event in recording order.
func (t *Tracer) forEach(fn func(*traceEvent)) {
	for _, c := range t.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// saveArgs copies args into the arena and returns the stable subslice.
// The full-slice expression caps the result so later appends to the arena
// can never overwrite a stored event's args.
func (t *Tracer) saveArgs(args []Arg) []Arg {
	if len(args) == 0 {
		return nil
	}
	if len(t.argPool)+len(args) > cap(t.argPool) {
		n := 4096
		if len(args) > n {
			n = len(args)
		}
		t.argPool = make([]Arg, 0, n)
	}
	start := len(t.argPool)
	t.argPool = append(t.argPool, args...)
	return t.argPool[start:len(t.argPool):len(t.argPool)]
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether the tracer records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// NameProcess assigns a display name to a trace process.
func (t *Tracer) NameProcess(pid int64, name string) {
	if t == nil {
		return
	}
	ev := t.slot()
	ev.name, ev.ph, ev.pid = "process_name", phMetadata, pid
	ev.args = t.saveArgs([]Arg{S("name", name)})
}

// NameThread assigns a display name to a trace thread.
func (t *Tracer) NameThread(pid, tid int64, name string) {
	if t == nil {
		return
	}
	ev := t.slot()
	ev.name, ev.ph, ev.pid, ev.tid = "thread_name", phMetadata, pid, tid
	ev.args = t.saveArgs([]Arg{S("name", name)})
}

// Span records a complete ('X') event from start to end. Spans on one
// thread must nest properly; use AsyncSpan for overlapping lifecycles.
func (t *Tracer) Span(pid, tid int64, cat, name string, start, end sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	ev := t.slot()
	ev.name, ev.cat, ev.ph = name, cat, phComplete
	ev.ts, ev.dur, ev.pid, ev.tid = start, d, pid, tid
	ev.args = t.saveArgs(args)
}

// AsyncSpan records an id-matched async span ('b'/'e' pair), which may
// overlap other spans on the same thread — request lifecycles, tasks and
// network flows use this.
func (t *Tracer) AsyncSpan(pid, tid int64, cat, name string, start, end sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.nextID++
	id := t.nextID
	if end < start {
		end = start
	}
	t.asyncPair(id, pid, tid, cat, name, start, end, args)
}

// asyncPair writes an async span's 'b'/'e' event pair.
func (t *Tracer) asyncPair(id, pid, tid int64, cat, name string, start, end sim.Time, args []Arg) {
	ev := t.slot()
	ev.name, ev.cat, ev.ph = name, cat, phAsyncBegin
	ev.ts, ev.pid, ev.tid, ev.id = start, pid, tid, id
	ev.args = t.saveArgs(args)
	ev = t.slot()
	ev.name, ev.cat, ev.ph = name, cat, phAsyncEnd
	ev.ts, ev.pid, ev.tid, ev.id = end, pid, tid, id
}

// Absorb appends every event recorded by src to t, renumbering src's
// async-span ids so they cannot collide with ids t has already allocated.
// It is the deterministic fold primitive of the parallel evaluation pool:
// evaluations record into private tracers concurrently, and the pool
// absorbs them into the shared tracer in submission order, which makes the
// folded trace byte-identical to one recorded serially into a single
// tracer (append order and async-id allocation both match). src must not
// be used concurrently with the call or record afterwards (absorbed args
// alias src's arena).
func (t *Tracer) Absorb(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	off := t.nextID
	for _, c := range src.chunks {
		for _, ev := range c {
			if ev.ph == phAsyncBegin || ev.ph == phAsyncEnd {
				ev.id += off
			}
			t.add(ev)
		}
	}
	t.nextID += src.nextID
}

// Instant records a point event.
func (t *Tracer) Instant(pid, tid int64, cat, name string, at sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	ev := t.slot()
	ev.name, ev.cat, ev.ph = name, cat, phInstant
	ev.ts, ev.pid, ev.tid = at, pid, tid
	ev.args = t.saveArgs(args)
}

// WriteJSON writes the trace in Chrome trace-event JSON object form
// ({"traceEvents": [...]}). Events are stably sorted by timestamp
// (metadata first), so output for a deterministic simulation is
// byte-identical across runs.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`+"\n")
		return err
	}
	order := make([]int, t.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := t.at(order[a]), t.at(order[b])
		am, bm := ea.ph == phMetadata, eb.ph == phMetadata
		if am != bm {
			return am
		}
		return ea.ts < eb.ts
	})

	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for k, idx := range order {
		if k > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		writeEvent(bw, t.at(idx))
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteFile writes the trace JSON to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeEvent(bw *bufio.Writer, ev *traceEvent) {
	bw.WriteString(`{"name":`)
	writeJSONString(bw, ev.name)
	if ev.cat != "" {
		bw.WriteString(`,"cat":`)
		writeJSONString(bw, ev.cat)
	}
	bw.WriteString(`,"ph":"`)
	bw.WriteByte(ev.ph)
	bw.WriteString(`","ts":`)
	writeMicros(bw, int64(ev.ts))
	if ev.ph == phComplete {
		bw.WriteString(`,"dur":`)
		writeMicros(bw, int64(ev.dur))
	}
	bw.WriteString(`,"pid":`)
	bw.WriteString(strconv.FormatInt(ev.pid, 10))
	bw.WriteString(`,"tid":`)
	bw.WriteString(strconv.FormatInt(ev.tid, 10))
	if ev.ph == phAsyncBegin || ev.ph == phAsyncEnd {
		bw.WriteString(`,"id":"`)
		bw.WriteString(strconv.FormatInt(ev.id, 10))
		bw.WriteByte('"')
	}
	if ev.ph == phInstant {
		bw.WriteString(`,"s":"t"`)
	}
	if len(ev.args) > 0 {
		bw.WriteString(`,"args":{`)
		for i, a := range ev.args {
			if i > 0 {
				bw.WriteByte(',')
			}
			writeJSONString(bw, a.Key)
			bw.WriteByte(':')
			switch a.kind {
			case 0:
				bw.WriteString(strconv.FormatInt(a.i, 10))
			case 1:
				bw.WriteString(strconv.FormatFloat(a.f, 'g', -1, 64))
			default:
				writeJSONString(bw, a.s)
			}
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// writeMicros renders a nanosecond quantity as microseconds with fixed
// 3-decimal precision ("1234.567") — the trace-event format's time unit.
func writeMicros(bw *bufio.Writer, ns int64) {
	neg := ns < 0
	if neg {
		ns = -ns
		bw.WriteByte('-')
	}
	bw.WriteString(strconv.FormatInt(ns/1000, 10))
	frac := ns % 1000
	bw.WriteByte('.')
	bw.WriteByte(byte('0' + frac/100))
	bw.WriteByte(byte('0' + (frac/10)%10))
	bw.WriteByte(byte('0' + frac%10))
}

const hexDigits = "0123456789abcdef"

// writeJSONString writes s as a JSON string literal with minimal escaping.
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(c)
		case c < 0x20:
			bw.WriteString(`\u00`)
			bw.WriteByte(hexDigits[c>>4])
			bw.WriteByte(hexDigits[c&0xf])
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}
