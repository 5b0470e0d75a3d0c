package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Counter is a monotonically increasing int64. Nil counters discard
// updates (disabled fast path).
type Counter struct{ n int64 }

// Add increments the counter by v.
func (c *Counter) Add(v int64) {
	if c != nil {
		c.n += v
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// GaugeMerge selects how a gauge folds across snapshots in
// Registry.Absorb. It is fixed when the gauge is created (like histogram
// edges) and travels with snapshots, so aggregation is deliberate per
// gauge kind rather than an accidental last-write-wins.
type GaugeMerge uint8

const (
	// MergeLast overwrites with the absorbed value — point-in-time
	// readings where the most recent run's value is the meaningful one
	// (e.g. mapred.duration_s).
	MergeLast GaugeMerge = iota
	// MergeSum adds the absorbed value — accumulated totals that span
	// runs (e.g. switch.stall_ms, per-phase I/O volumes).
	MergeSum
	// MergeMax keeps the larger value — high-water marks (e.g. peak
	// queue depth).
	MergeMax
)

func (m GaugeMerge) String() string {
	switch m {
	case MergeSum:
		return "sum"
	case MergeMax:
		return "max"
	}
	return "last"
}

func gaugeMergeFromString(s string) GaugeMerge {
	switch s {
	case "sum":
		return MergeSum
	case "max":
		return MergeMax
	}
	return MergeLast
}

// Gauge is a settable float64 with a merge policy applied when snapshots
// are absorbed (last-write-wins by default). Nil gauges discard updates.
type Gauge struct {
	v     float64
	merge GaugeMerge
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add offsets the gauge by v.
func (g *Gauge) Add(v float64) {
	if g != nil {
		g.v += v
	}
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket histogram: bucket i counts observations
// v <= Edges[i]; the final (implicit) bucket counts everything beyond the
// last edge. Nil histograms discard observations.
type Histogram struct {
	edges  []float64 // ascending upper bounds
	counts []int64   // len(edges)+1, last = overflow
	sum    float64
	n      int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	i := sort.SearchFloat64s(h.edges, v) // first edge >= v
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Buckets returns copies of the edges and per-bucket counts (the final
// count is the overflow bucket).
func (h *Histogram) Buckets() ([]float64, []int64) {
	if h == nil {
		return nil, nil
	}
	return append([]float64(nil), h.edges...), append([]int64(nil), h.counts...)
}

// ExpEdges builds n exponentially spaced bucket edges starting at start
// with the given growth factor — the standard latency/distance layout.
func ExpEdges(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: invalid exponential edges")
	}
	edges := make([]float64, n)
	v := start
	for i := range edges {
		edges[i] = v
		v *= factor
	}
	return edges
}

// Registry is a named collection of counters, gauges and histograms.
// Lookup-or-create methods are idempotent: the same name always returns
// the same instrument, which is how per-level metrics aggregate across
// queues and elevator switches. A nil *Registry returns nil instruments,
// whose updates are discarded.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// absorbed guards against folding the same snapshot in twice, which
	// would double-count every counter and histogram (see Absorb).
	absorbed map[*Snapshot]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether the registry records (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the counter registered under name, creating it if
// needed. Nil registries return nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it with the
// default MergeLast policy if needed.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeWith(name, MergeLast) }

// GaugeWith returns the gauge registered under name, creating it with the
// given merge policy if needed. Like histogram edges, the policy is fixed
// at creation; a later call with a different policy returns the existing
// gauge unchanged.
func (r *Registry) GaugeWith(name string, merge GaugeMerge) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{merge: merge}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given edges if needed. Edges are fixed at creation; a later call
// with different edges returns the existing histogram unchanged.
func (r *Registry) Histogram(name string, edges []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		if len(edges) == 0 {
			panic("obs: histogram needs at least one edge")
		}
		for i := 1; i < len(edges); i++ {
			if edges[i] <= edges[i-1] {
				panic("obs: histogram edges must be strictly ascending")
			}
		}
		h = &Histogram{
			edges:  append([]float64(nil), edges...),
			counts: make([]int64, len(edges)+1),
		}
		r.hists[name] = h
	}
	return h
}

// HistSnapshot is the exportable state of one histogram.
type HistSnapshot struct {
	Edges  []float64 `json:"edges"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, JSON- and
// CSV-exportable. Nil registries snapshot to nil.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`

	// GaugeMerges records the non-default merge policies ("sum", "max")
	// of the snapshotted gauges, so Absorb applies the right fold.
	// Omitted when every gauge is last-write-wins, keeping older
	// snapshot files readable and byte-compatible.
	GaugeMerges map[string]string `json:"gauge_merges,omitempty"`
}

// Snapshot copies the current instrument values.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.n
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
		if g.merge != MergeLast {
			if s.GaugeMerges == nil {
				s.GaugeMerges = make(map[string]string)
			}
			s.GaugeMerges[name] = g.merge.String()
		}
	}
	for name, h := range r.hists {
		edges, counts := h.Buckets()
		s.Histograms[name] = HistSnapshot{Edges: edges, Counts: counts, Sum: h.sum, Count: h.n}
	}
	return s
}

// Absorb folds a snapshot back into the registry: counters add, gauges
// merge per their recorded policy (MergeLast overwrites, MergeSum adds,
// MergeMax keeps the maximum — see GaugeMerge), and histograms with
// matching edges merge bucket-wise (mismatched edges are skipped). The
// Runner uses this to aggregate per-evaluation registries into a
// caller-supplied one.
//
// Absorbing the same *Snapshot into the same registry more than once is a
// no-op after the first time: a snapshot is a cumulative copy, so folding
// it in twice would double-count every counter and histogram. Distinct
// snapshots of the same source registry are still the caller's
// responsibility to take as deltas or absorb once.
func (r *Registry) Absorb(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	if r.absorbed[s] {
		return
	}
	if r.absorbed == nil {
		r.absorbed = make(map[*Snapshot]bool)
	}
	r.absorbed[s] = true
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		merge := gaugeMergeFromString(s.GaugeMerges[name])
		g := r.GaugeWith(name, merge)
		switch merge {
		case MergeSum:
			g.Add(v)
		case MergeMax:
			if g != nil && v > g.v {
				g.v = v
			}
		default:
			g.Set(v)
		}
	}
	for name, hs := range s.Histograms {
		if len(hs.Edges) == 0 {
			continue
		}
		h := r.Histogram(name, hs.Edges)
		if len(h.edges) != len(hs.Edges) {
			continue
		}
		same := true
		for i := range h.edges {
			if h.edges[i] != hs.Edges[i] {
				same = false
				break
			}
		}
		if !same {
			continue
		}
		for i, c := range hs.Counts {
			h.counts[i] += c
		}
		h.sum += hs.Sum
		h.n += hs.Count
	}
}

// WriteJSON writes the snapshot as a single JSON object with sorted keys
// (encoding/json sorts map keys, so output is deterministic).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if s == nil {
		return enc.Encode(&Snapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]HistSnapshot{},
		})
	}
	return enc.Encode(s)
}

// WriteCSV writes the snapshot as rows of
// kind,name,field,value — counters and gauges take one row each
// (field empty), histograms one row per bucket (field = "le:<edge>" or
// "le:+inf") plus "sum" and "count" rows.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "kind,name,field,value")
	if s != nil {
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(bw, "counter,%s,,%d\n", name, s.Counters[name])
		}
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(bw, "gauge,%s,,%s\n", name, formatFloat(s.Gauges[name]))
		}
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			for i, c := range h.Counts {
				edge := "+inf"
				if i < len(h.Edges) {
					edge = formatFloat(h.Edges[i])
				}
				fmt.Fprintf(bw, "hist,%s,le:%s,%d\n", name, edge, c)
			}
			fmt.Fprintf(bw, "hist,%s,sum,%s\n", name, formatFloat(h.Sum))
			fmt.Fprintf(bw, "hist,%s,count,%d\n", name, h.Count)
		}
	}
	return bw.Flush()
}

// WriteFile writes the snapshot to path: CSV when the path ends in
// ".csv", JSON otherwise.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if len(path) > 4 && path[len(path)-4:] == ".csv" {
		err = s.WriteCSV(f)
	} else {
		err = s.WriteJSON(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
