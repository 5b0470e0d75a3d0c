package obs

import "adaptmr/internal/sim"

// EventKind classifies a normalized trace event.
type EventKind uint8

const (
	// KindSpan is a time interval: a complete ('X') event or a joined
	// async 'b'/'e' pair.
	KindSpan EventKind = iota
	// KindInstant is a point event.
	KindInstant
	// KindMetadata is a process/thread naming record.
	KindMetadata
)

// Event is the exported, normalized view of one recorded trace event, the
// in-process interface consumed by internal/analyze (no JSON round-trip).
// Async begin/end pairs are joined into a single KindSpan event.
type Event struct {
	Name  string
	Cat   string
	Kind  EventKind
	Start sim.Time
	End   sim.Time // == Start for instants and metadata
	PID   int64
	TID   int64
	Args  []Arg
}

// Arg returns the argument registered under key.
func (e Event) Arg(key string) (Arg, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			return a, true
		}
	}
	return Arg{}, false
}

// ArgInt returns the integer argument under key (0 when absent or not an
// integer).
func (e Event) ArgInt(key string) int64 {
	if a, ok := e.Arg(key); ok && a.kind == 0 {
		return a.i
	}
	return 0
}

// ArgFloat returns the float argument under key, converting integer
// arguments (0 when absent).
func (e Event) ArgFloat(key string) float64 {
	a, ok := e.Arg(key)
	if !ok {
		return 0
	}
	switch a.kind {
	case 0:
		return float64(a.i)
	case 1:
		return a.f
	}
	return 0
}

// VisitEvents calls fn with every recorded event in normalized form, in
// recording order: complete spans become [ts, ts+dur] intervals, an async
// begin/end pair becomes one span over the length its begin recorded,
// metadata and instants pass through. Args alias the tracer's storage —
// treat them as read-only. Nothing is materialized, so large trace
// consumers (internal/analyze) keep the post-run pass allocation-free.
func (t *Tracer) VisitEvents(fn func(Event)) {
	if t == nil {
		return
	}
	t.forEach(func(ev *traceEvent) {
		e := Event{
			Name: ev.name, Cat: ev.cat,
			Start: ev.ts, End: ev.ts,
			PID: ev.pid, TID: ev.tid, Args: ev.args,
		}
		switch ev.ph {
		case phComplete, phAsyncBegin:
			e.Kind = KindSpan
			e.End = ev.ts.Add(ev.dur)
		case phAsyncEnd:
			return // folded into its begin
		case phInstant:
			e.Kind = KindInstant
		case phMetadata:
			e.Kind = KindMetadata
		default:
			return
		}
		fn(e)
	})
}
