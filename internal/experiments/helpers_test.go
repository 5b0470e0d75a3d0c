package experiments

import (
	"math"
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileOfCDF(t *testing.T) {
	cdf := []CDFPoint{
		{Value: 10, Fraction: 0.25},
		{Value: 20, Fraction: 0.5},
		{Value: 30, Fraction: 1.0},
	}
	cases := []struct{ q, want float64 }{
		{10, 10}, {25, 10}, {40, 20}, {50, 20}, {90, 30}, {100, 30},
	}
	for _, c := range cases {
		if got := percentileOfCDF(cdf, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	if percentileOfCDF(nil, 50) != 0 {
		t.Fatal("empty cdf")
	}
}

func TestPairCodes(t *testing.T) {
	cfg := Quick()
	codes := pairCodes(cfg.Pairs)
	if len(codes) != len(cfg.Pairs) {
		t.Fatal("length")
	}
	if codes[0] != "cc" {
		t.Fatalf("first code %q", codes[0])
	}
}

func TestFig1Variation(t *testing.T) {
	r := Fig1Result{
		Consolidations: []int{1, 3},
		Pairs:          Quick().Pairs[:2],
		Elapsed:        [][]float64{{10, 10}, {30, 36}},
	}
	if got := r.Variation(3); got < 0.19 || got > 0.21 {
		t.Fatalf("variation %v, want 0.2", got)
	}
	if got := r.SlowdownVs1VM(3); got < 3.29 || got > 3.31 {
		t.Fatalf("slowdown %v, want 3.3", got)
	}
	if r.SlowdownVs1VM(7) != 0 {
		t.Fatal("unknown consolidation should give 0")
	}
}

func TestFig5SummariesOnSyntheticMatrix(t *testing.T) {
	r := Fig5Result{
		Pairs: Quick().Pairs[:2],
		Cost:  [][]float64{{1, 4}, {2, 3}},
	}
	if r.MinCost() != 1 || r.MaxCost() != 4 {
		t.Fatalf("range %v..%v", r.MinCost(), r.MaxCost())
	}
	if r.SelfCostMean() != 2 {
		t.Fatalf("self mean %v", r.SelfCostMean())
	}
	if r.Asymmetry() != 2 { // |4-2| over the single off-diagonal pair
		t.Fatalf("asymmetry %v", r.Asymmetry())
	}
}

func TestAdaptiveRowImprovements(t *testing.T) {
	row := AdaptiveRow{Default: 100, BestOne: 90, Adaptive: 81}
	if got := row.ImprovementOverDefault(); got < 0.189 || got > 0.191 {
		t.Fatalf("vs default %v", got)
	}
	if got := row.ImprovementOverBest(); got < 0.099 || got > 0.101 {
		t.Fatalf("vs best %v", got)
	}
	zero := AdaptiveRow{}
	if zero.ImprovementOverDefault() != 0 || zero.ImprovementOverBest() != 0 {
		t.Fatal("zero rows should not divide by zero")
	}
}
