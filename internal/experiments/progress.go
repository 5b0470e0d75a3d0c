package experiments

import (
	"fmt"

	"adaptmr/internal/iosched"
	"adaptmr/internal/workloads"
)

// Fig4Result reproduces Fig 4: the running time needed to reach successive
// progress points of the sort benchmark under each scheduler pair, plus
// the composed per-segment optimum the paper uses to argue that switching
// pairs mid-job can beat any single pair.
type Fig4Result struct {
	Pairs     []iosched.Pair
	Fractions []float64
	// TimeAt[pair][k] is seconds to reach Fractions[k] of job progress.
	TimeAt [][]float64
	// ComposedOptimal[k] sums the per-segment minima up to checkpoint k.
	ComposedOptimal []float64
}

// Fig4 runs sort under every pair and samples the job's progress trace at
// eight checkpoints.
func Fig4(cfg Config) Fig4Result {
	bm := workloads.Sort(cfg.InputPerVM)
	res := Fig4Result{Pairs: cfg.Pairs}
	for k := 1; k <= 8; k++ {
		res.Fractions = append(res.Fractions, float64(k)/8)
	}
	res.TimeAt = make([][]float64, len(cfg.Pairs))
	// One progress-instrumented run per pair, each on its own cluster.
	parDo(cfg, len(cfg.Pairs), func(i int) {
		res.TimeAt[i] = runPairProgress(cfg, bm, cfg.Pairs[i], res.Fractions)
	})
	// Composed optimum: for each segment between checkpoints take the best
	// pair's segment time.
	total := 0.0
	for k := range res.Fractions {
		best := -1.0
		for i := range res.Pairs {
			prev := 0.0
			if k > 0 {
				prev = res.TimeAt[i][k-1]
			}
			seg := res.TimeAt[i][k] - prev
			if best < 0 || seg < best {
				best = seg
			}
		}
		total += best
		res.ComposedOptimal = append(res.ComposedOptimal, total)
	}
	return res
}

// runPairProgress executes the benchmark under one pair on a fresh cluster
// and reads the elapsed time at each requested progress fraction off the
// job's progress trace. Fractions never reached resolve to the total
// duration.
func runPairProgress(cfg Config, bm workloads.Benchmark, p iosched.Pair, fractions []float64) []float64 {
	res := runPair(cfg, bm, p, nil)
	times := make([]float64, len(fractions))
	for i, f := range fractions {
		times[i] = res.Duration.Seconds()
		for _, pt := range res.Progress {
			if pt.Fraction >= f {
				times[i] = pt.At.Sub(res.Start).Seconds()
				break
			}
		}
	}
	return times
}

// OptimalImprovementOverDefault returns the gain of the composed optimum
// versus the default pair's completion time (paper: ~26%).
func (r Fig4Result) OptimalImprovementOverDefault() float64 {
	def := r.defaultFinal()
	if def <= 0 {
		return 0
	}
	return (def - r.ComposedOptimal[len(r.ComposedOptimal)-1]) / def
}

// OptimalImprovementOverBest returns the gain of the composed optimum over
// the best single pair (paper: ~15% vs (Anticipatory, Deadline)).
func (r Fig4Result) OptimalImprovementOverBest() float64 {
	best := -1.0
	for i := range r.Pairs {
		v := r.TimeAt[i][len(r.Fractions)-1]
		if best < 0 || v < best {
			best = v
		}
	}
	if best <= 0 {
		return 0
	}
	return (best - r.ComposedOptimal[len(r.ComposedOptimal)-1]) / best
}

func (r Fig4Result) defaultFinal() float64 {
	for i, p := range r.Pairs {
		if p == iosched.DefaultPair {
			return r.TimeAt[i][len(r.Fractions)-1]
		}
	}
	return 0
}

// Render formats the checkpoint table.
func (r Fig4Result) Render() string {
	var heads []string
	for _, f := range r.Fractions {
		heads = append(heads, fmt.Sprintf("%.0f%%", 100*f))
	}
	t := Table{
		Title:    "Fig 4: running time at sort progress points per pair",
		Unit:     "s",
		ColHeads: heads,
		RowHeads: pairCodes(r.Pairs),
		Cells:    r.TimeAt,
	}
	t.RowHeads = append(t.RowHeads, "optimal")
	t.Cells = append(t.Cells, r.ComposedOptimal)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"per-segment optimum beats default by %.0f%% and the best single pair by %.0f%%",
		100*r.OptimalImprovementOverDefault(), 100*r.OptimalImprovementOverBest()))
	return t.Render()
}
