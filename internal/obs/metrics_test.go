package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestHistogramBucketEdges pins the le-bucket semantics: bucket i counts
// observations v <= Edges[i], and a value exactly on an edge lands in that
// edge's bucket (not the next one).
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})

	cases := []struct {
		v      float64
		bucket int
	}{
		{0.5, 0}, // below first edge
		{1.0, 0}, // exactly on first edge → le:1
		{1.5, 1},
		{2.0, 1}, // exactly on middle edge → le:2
		{4.0, 2}, // exactly on last edge → le:4
		{4.1, 3}, // beyond last edge → overflow
	}
	for _, c := range cases {
		before := snapshotCounts(h)
		h.Observe(c.v)
		after := snapshotCounts(h)
		for i := range after {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if after[i] != want {
				t.Fatalf("Observe(%v): bucket %d = %d, want %d", c.v, i, after[i], want)
			}
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func snapshotCounts(h *Histogram) []int64 {
	_, counts := h.Buckets()
	return counts
}

func TestEdgeBuilders(t *testing.T) {
	exp := ExpEdges(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("ExpEdges[%d] = %v, want %v", i, exp[i], want)
		}
	}
	for _, fn := range []func(){
		func() { ExpEdges(0, 2, 4) },
		func() { ExpEdges(1, 1, 4) },
		func() { NewRegistry().Histogram("bad", nil) },
		func() { NewRegistry().Histogram("bad", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for invalid edges")
				}
			}()
			fn()
		}()
	}
}

// TestNilInstruments exercises the disabled fast path: a nil registry hands
// out nil instruments and every update is silently discarded.
func TestNilInstruments(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry enabled")
	}
	c := r.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter recorded")
	}
	g := r.Gauge("g")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge recorded")
	}
	h := r.Histogram("h", []float64{1})
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	if e, cts := h.Buckets(); e != nil || cts != nil {
		t.Fatal("nil histogram buckets")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot")
	}
	r.Absorb(&Snapshot{Counters: map[string]int64{"x": 1}}) // must not panic
}

// TestRegistryIdempotentLookup verifies lookup-or-create returns the same
// instrument, which is how metrics survive elevator switches.
func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("counter lookup not idempotent")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("gauge lookup not idempotent")
	}
	h := r.Histogram("z", []float64{1, 2})
	if r.Histogram("z", []float64{7}) != h {
		t.Fatal("histogram lookup not idempotent")
	}
	// Edges are fixed at creation.
	edges, _ := h.Buckets()
	if len(edges) != 2 || edges[0] != 1 || edges[1] != 2 {
		t.Fatalf("edges changed: %v", edges)
	}
}

func TestSnapshotAbsorb(t *testing.T) {
	src := NewRegistry()
	src.Counter("c").Add(3)
	src.Gauge("g").Set(2.5)
	src.Histogram("h", []float64{1, 2}).Observe(1.5)
	snap := src.Snapshot()

	dst := NewRegistry()
	dst.Counter("c").Add(1)
	dst.Gauge("g").Set(9)
	dst.Histogram("h", []float64{1, 2}).Observe(0.5)
	// Mismatched edges must be skipped, not merged or panicked on.
	dst.Histogram("mismatch", []float64{10})
	snap.Histograms["mismatch"] = HistSnapshot{Edges: []float64{1, 2}, Counts: []int64{1, 0, 0}, Sum: 1, Count: 1}

	dst.Absorb(snap)
	if v := dst.Counter("c").Value(); v != 4 {
		t.Fatalf("counter after absorb = %d", v) // counters add
	}
	if v := dst.Gauge("g").Value(); v != 2.5 {
		t.Fatalf("gauge after absorb = %v", v) // gauges overwrite
	}
	h := dst.Histogram("h", []float64{1, 2})
	if h.Count() != 2 || h.Sum() != 2.0 {
		t.Fatalf("hist after absorb: count=%d sum=%v", h.Count(), h.Sum())
	}
	if dst.Histogram("mismatch", nil).Count() != 0 {
		t.Fatal("mismatched-edge histogram was merged")
	}
}

func TestSnapshotExportDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g").Set(1.25)
	r.Histogram("lat", []float64{1, 2}).Observe(3)
	snap := r.Snapshot()

	var j1, j2, c1, c2 bytes.Buffer
	if err := snap.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON export not deterministic")
	}
	var parsed Snapshot
	if err := json.Unmarshal(j1.Bytes(), &parsed); err != nil {
		t.Fatalf("JSON export invalid: %v", err)
	}
	if parsed.Counters["a.count"] != 1 || parsed.Counters["b.count"] != 2 {
		t.Fatalf("roundtrip counters: %v", parsed.Counters)
	}

	if err := snap.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("CSV export not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(c1.String()), "\n")
	if lines[0] != "kind,name,field,value" {
		t.Fatalf("CSV header: %q", lines[0])
	}
	// a.count sorts before b.count.
	if lines[1] != "counter,a.count,,1" || lines[2] != "counter,b.count,,2" {
		t.Fatalf("CSV rows unsorted: %v", lines[1:3])
	}
	// Overflow row (value 3 > last edge 2) plus sum/count rows.
	want := []string{"hist,lat,le:1,0", "hist,lat,le:2,0", "hist,lat,le:+inf,1", "hist,lat,sum,3", "hist,lat,count,1"}
	got := lines[len(lines)-5:]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CSV hist row %d = %q, want %q", i, got[i], want[i])
		}
	}

	// Nil snapshots export empty-but-valid documents.
	var nilSnap *Snapshot
	var nj, nc bytes.Buffer
	if err := nilSnap.WriteJSON(&nj); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(nj.Bytes(), &parsed); err != nil {
		t.Fatalf("nil snapshot JSON invalid: %v", err)
	}
	if err := nilSnap.WriteCSV(&nc); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(nc.String()) != "kind,name,field,value" {
		t.Fatalf("nil snapshot CSV: %q", nc.String())
	}
}
