package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatalf("min/max %v %v", Min(xs), Max(xs))
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty input should give zeros")
	}
}

func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if math.Abs(StdDev(xs)-2.0) > 1e-9 {
		t.Fatalf("sd %v", StdDev(xs))
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single sample sd")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {-5, 10}, {200, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	cdf := CDF(xs)
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("cdf %v", cdf)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Fatal("empty cdf")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("%+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty render")
	}
}

func TestQuickCDFInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		cdf := CDF(xs)
		if len(xs) == 0 {
			return cdf == nil
		}
		// Monotone in both coordinates; ends at 1.0.
		for i := range cdf {
			if i > 0 && (cdf[i].Value <= cdf[i-1].Value || cdf[i].Fraction <= cdf[i-1].Fraction) {
				return false
			}
			if cdf[i].Fraction <= 0 || cdf[i].Fraction > 1 {
				return false
			}
		}
		if cdf[len(cdf)-1].Fraction != 1.0 {
			return false
		}
		// Percentile is always within [min, max].
		ys := append([]float64(nil), xs...)
		sort.Float64s(ys)
		for _, p := range []float64{0, 10, 50, 90, 100} {
			v := Percentile(xs, p)
			if v < ys[0] || v > ys[len(ys)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputSampler(t *testing.T) {
	eng := sim.New(1)
	ts := NewThroughputSampler(eng, sim.Second)
	// 10 MB at t=0.5, 20 MB at t=1.5.
	eng.Schedule(500*sim.Millisecond, func() { ts.Record(10e6) })
	eng.Schedule(1500*sim.Millisecond, func() { ts.Record(20e6) })
	eng.Run()
	series := ts.Series()
	if len(series) != 2 {
		t.Fatalf("series %v", series)
	}
	if math.Abs(series[0]-10) > 1e-9 {
		t.Fatalf("window 0 = %v MB/s", series[0])
	}
	if ts.TotalBytes() != 30e6 {
		t.Fatalf("total %d", ts.TotalBytes())
	}
	if m := ts.MeanMBps(); math.Abs(m-20) > 1e-6 { // 30 MB over 1.5s
		t.Fatalf("mean %v", m)
	}
}

func TestThroughputSamplerSkipsEmptyWindows(t *testing.T) {
	eng := sim.New(1)
	ts := NewThroughputSampler(eng, sim.Second)
	eng.Schedule(100*sim.Millisecond, func() { ts.Record(1e6) })
	eng.Schedule(5500*sim.Millisecond, func() { ts.Record(2e6) })
	eng.Run()
	series := ts.Series()
	// Windows: [0,1)=1MB, [1..5) four empty windows, partial [5,5.5]=2MB.
	if len(series) != 6 {
		t.Fatalf("series len %d: %v", len(series), series)
	}
	for i := 1; i < 5; i++ {
		if series[i] != 0 {
			t.Fatalf("window %d = %v, want 0", i, series[i])
		}
	}
}

func TestSamplerInvalidWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewThroughputSampler(sim.New(1), 0)
}

// fifoQueueElv / instantDev are minimal block.Queue collaborators so the
// sampler's Attach path can be exercised without a full simulated disk.
type fifoQueueElv struct{ q []*block.Request }

func (f *fifoQueueElv) Name() string                       { return "fifo" }
func (f *fifoQueueElv) Add(r *block.Request, _ sim.Time)   { f.q = append(f.q, r) }
func (f *fifoQueueElv) Completed(*block.Request, sim.Time) {}
func (f *fifoQueueElv) Pending() int                       { return len(f.q) }
func (f *fifoQueueElv) Dispatch(_ sim.Time) (*block.Request, sim.Time) {
	if len(f.q) == 0 {
		return nil, 0
	}
	r := f.q[0]
	f.q = f.q[1:]
	return r, 0
}

type instantDev struct{ eng *sim.Engine }

func (d *instantDev) Service(r *block.Request, done func(*block.Request)) {
	d.eng.Schedule(sim.Millisecond, func() { done(r) })
}

// TestThroughputSamplerAttachCoexists verifies Attach subscribes through the
// queue's multi-subscriber hook: the sampler and another completion
// listener both observe every request, with no chaining between them.
func TestThroughputSamplerAttachCoexists(t *testing.T) {
	eng := sim.New(1)
	q := block.NewQueue(eng, &fifoQueueElv{}, &instantDev{eng: eng}, 1)
	ts := NewThroughputSampler(eng, sim.Second)
	other := 0
	q.OnComplete(func(*block.Request) { other++ })
	ts.Attach(q)
	const n = 4
	for i := 0; i < n; i++ {
		q.Submit(block.NewRequest(block.Read, int64(i*16), 8, true, 1))
	}
	eng.Run()
	if other != n {
		t.Fatalf("co-subscriber saw %d completions, want %d", other, n)
	}
	if ts.TotalBytes() != n*8*block.SectorSize {
		t.Fatalf("sampler saw %d bytes", ts.TotalBytes())
	}
}

// TestThroughputSamplerIdleGap covers a long idle gap: every empty window in
// the gap appears as an explicit zero sample, and a record landing exactly
// on a window boundary opens the next window (no partial duplicate).
func TestThroughputSamplerIdleGap(t *testing.T) {
	eng := sim.New(1)
	ts := NewThroughputSampler(eng, sim.Second)
	eng.Schedule(500*sim.Millisecond, func() { ts.Record(3e6) })
	// Exactly on the t=3s boundary: windows [0,1) [1,2) [2,3) close, the
	// record belongs to [3,4).
	eng.Schedule(3*sim.Second, func() { ts.Record(7e6) })
	eng.Run()
	series := ts.Series()
	want := []float64{3, 0, 0} // closed windows; [3,4) has data but zero elapsed
	if len(series) != len(want) {
		t.Fatalf("series %v, want %v + nothing", series, want)
	}
	for i, v := range want {
		if math.Abs(series[i]-v) > 1e-9 {
			t.Fatalf("series[%d] = %v, want %v", i, series[i], v)
		}
	}
	if ts.TotalBytes() != 10e6 {
		t.Fatalf("total %d", ts.TotalBytes())
	}
}

// TestThroughputSamplerPartialTrailingWindow pins the partial-window rate:
// the trailing sample is normalised by elapsed time within the window, not
// the full window length.
func TestThroughputSamplerPartialTrailingWindow(t *testing.T) {
	eng := sim.New(1)
	ts := NewThroughputSampler(eng, sim.Second)
	eng.Schedule(2200*sim.Millisecond, func() { ts.Record(5e6) })
	eng.Schedule(2500*sim.Millisecond, func() { ts.Record(5e6) })
	eng.Run()
	series := ts.Series()
	// Windows [0,1) and [1,2) are empty; the partial [2, 2.5] holds 10 MB
	// over 0.5 s elapsed = 20 MB/s.
	if len(series) != 3 {
		t.Fatalf("series %v", series)
	}
	if series[0] != 0 || series[1] != 0 {
		t.Fatalf("gap windows not zero: %v", series)
	}
	if math.Abs(series[2]-20) > 1e-9 {
		t.Fatalf("partial window = %v MB/s, want 20", series[2])
	}
	// Series must not mutate sampler state: calling it again is identical.
	again := ts.Series()
	for i := range series {
		if series[i] != again[i] {
			t.Fatalf("Series not idempotent: %v vs %v", series, again)
		}
	}
}

// TestThroughputSamplerRunEndsWindowsLater pins the end of a run that
// outlives its last record by several windows: the window holding the
// record is normalised by the full window, and every window after it up
// to now is an explicit zero.
func TestThroughputSamplerRunEndsWindowsLater(t *testing.T) {
	eng := sim.New(1)
	ts := NewThroughputSampler(eng, sim.Second)
	eng.Schedule(5500*sim.Millisecond, func() { ts.Record(2e6) })
	eng.Schedule(10*sim.Second, func() {})
	eng.Run()
	series := ts.Series()
	want := []float64{0, 0, 0, 0, 0, 2, 0, 0, 0, 0}
	if len(series) != len(want) {
		t.Fatalf("series %v, want %v", series, want)
	}
	for i, v := range want {
		if math.Abs(series[i]-v) > 1e-9 {
			t.Fatalf("series %v, want %v", series, want)
		}
	}
}
