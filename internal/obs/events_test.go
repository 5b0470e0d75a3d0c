package obs

import (
	"testing"

	"adaptmr/internal/sim"
)

// visited collects every event VisitEvents hands out.
func visited(tr *Tracer) []Event {
	var evs []Event
	tr.VisitEvents(func(e Event) { evs = append(evs, e) })
	return evs
}

// argStr returns the string argument under key ("" when absent).
func argStr(e Event, key string) string {
	if a, ok := e.Arg(key); ok && a.kind == 2 {
		return a.s
	}
	return ""
}

func TestEventsNormalization(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(2, "host0")
	tr.Span(2, 1, "disk", "read", sim.Time(1500), sim.Time(4500), I("sectors", 8))
	tr.AsyncSpan(2, 1, "io.dom0", "write", sim.Time(1000), sim.Time(9000), F("wait_ms", 0.5), S("stream", "s1"))
	tr.Instant(2, 1, "io.dom0", "merge", sim.Time(2000))

	evs := visited(tr)
	if len(evs) != 4 { // metadata + span + joined async + instant
		t.Fatalf("got %d events, want 4", len(evs))
	}

	if evs[0].Kind != KindMetadata {
		t.Fatalf("event 0 kind = %v, want metadata", evs[0].Kind)
	}

	sp := evs[1]
	if sp.Kind != KindSpan || sp.Name != "read" || sp.Cat != "disk" {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Start != 1500 || sp.End != 4500 || sp.End.Sub(sp.Start) != 3000 {
		t.Fatalf("span interval [%d,%d]", sp.Start, sp.End)
	}
	if sp.ArgInt("sectors") != 8 {
		t.Fatalf("sectors = %d", sp.ArgInt("sectors"))
	}
	if sp.ArgFloat("sectors") != 8 { // int arg converts
		t.Fatalf("ArgFloat(sectors) = %v", sp.ArgFloat("sectors"))
	}

	as := evs[2]
	if as.Kind != KindSpan || as.Name != "write" {
		t.Fatalf("async = %+v", as)
	}
	if as.Start != 1000 || as.End != 9000 {
		t.Fatalf("async pair not joined: [%d,%d]", as.Start, as.End)
	}
	if as.ArgFloat("wait_ms") != 0.5 || argStr(as, "stream") != "s1" {
		t.Fatalf("async args: wait_ms=%v stream=%q", as.ArgFloat("wait_ms"), argStr(as, "stream"))
	}
	if as.ArgInt("missing") != 0 || argStr(as, "missing") != "" || as.ArgFloat("missing") != 0 {
		t.Fatal("absent args should be zero-valued")
	}

	in := evs[3]
	if in.Kind != KindInstant || in.Start != 2000 || in.End != 2000 || in.End.Sub(in.Start) != 0 {
		t.Fatalf("instant = %+v", in)
	}
}

func TestEventsNilTracer(t *testing.T) {
	var tr *Tracer
	if got := visited(tr); got != nil {
		t.Fatalf("nil tracer visited %v", got)
	}
}

func TestEventsAsyncPairsDisambiguatedByID(t *testing.T) {
	// Two overlapping async spans on the same track must each join with
	// their own end, not the other's.
	tr := NewTracer()
	tr.AsyncSpan(2, 1, "io.vm", "read", sim.Time(100), sim.Time(900))
	tr.AsyncSpan(2, 1, "io.vm", "read", sim.Time(200), sim.Time(500))
	evs := visited(tr)
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Start != 100 || evs[0].End != 900 {
		t.Fatalf("first span [%d,%d]", evs[0].Start, evs[0].End)
	}
	if evs[1].Start != 200 || evs[1].End != 500 {
		t.Fatalf("second span [%d,%d]", evs[1].Start, evs[1].End)
	}
}
