package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
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
