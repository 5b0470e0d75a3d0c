package obs

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 20, 40})
	// 10 observations in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}

	cases := []struct {
		q    float64
		want float64
	}{
		{0.25, 5},       // rank 5 → halfway through bucket [0,10]
		{0.5, 10},       // rank 10 → top of first bucket
		{0.75, 15},      // halfway through (10,20]
		{1.0, 20},       // all mass within second bucket
		{-0.5, 0},       // clamped to q=0
		{1.5, 20},       // clamped to q=1
		{0.0001, 0.002}, // near-zero rank interpolates from lower bound 0
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); !approx(got, c.want) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileOverflowClampsToLastEdge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(100) // overflow bucket
	h.Observe(100)
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want last edge 2", got)
	}
}

func TestQuantileEmptyAndNil(t *testing.T) {
	var h *Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should return 0")
	}
	r := NewRegistry()
	if r.Histogram("h", []float64{1}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram should return 0")
	}
	var s Snapshot
	if s.Histograms["h"].Quantile(0.5) != 0 {
		t.Fatal("a snapshot without the histogram should return 0")
	}
}

func TestSnapshotHistQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LatencyEdgesMs())
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	s := r.Snapshot()
	for _, q := range []float64{0.5, 0.95} {
		if got, want := s.Histograms["lat"].Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("snapshot quantile %v = %v != live %v", q, got, want)
		}
		if got, want := h.Snapshot().Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("histogram snapshot quantile %v = %v != live %v", q, got, want)
		}
	}
	if s.Histograms["absent"].Quantile(0.5) != 0 {
		t.Fatal("absent histogram should return 0")
	}
}
