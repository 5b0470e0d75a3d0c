package experiments

import (
	"context"
	"fmt"

	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/workloads"
)

// runPair executes one benchmark under one pair on a fresh cluster; wire,
// when non-nil, attaches instruments to the cluster before the job starts.
// A run that drains before the job completes is a model deadlock and
// panics, as mapred.Run does.
func runPair(cfg Config, bm workloads.Benchmark, p iosched.Pair, wire func(*cluster.Cluster)) mapred.Result {
	res, err := core.Execute(context.TODO(), cfg.Cluster, bm.Job, core.Uniform(core.TwoPhases, p), false, wire)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return res.Job
}

// Fig2Result reproduces Fig 2: Hadoop execution time for the three
// benchmarks under every scheduler pair.
type Fig2Result struct {
	Pairs      []iosched.Pair
	Benchmarks []string
	// Seconds[benchmark][pair].
	Seconds [][]float64
}

// Fig2 sweeps wordcount, wordcount w/o combiner and sort over the pairs.
// Every (benchmark, pair) cell is an independent simulation on a fresh
// cluster, so the whole grid fans out across the configured workers.
func Fig2(cfg Config) Fig2Result {
	suite := workloads.Suite(cfg.InputPerVM)
	res := Fig2Result{Pairs: cfg.Pairs}
	np := len(cfg.Pairs)
	res.Seconds = make([][]float64, len(suite))
	for i, bm := range suite {
		res.Benchmarks = append(res.Benchmarks, bm.Job.Name)
		res.Seconds[i] = make([]float64, np)
	}
	parDo(cfg, len(suite)*np, func(k int) {
		i, j := k/np, k%np
		res.Seconds[i][j] = runPair(cfg, suite[i], cfg.Pairs[j], nil).Duration.Seconds()
	})
	return res
}

// Best returns the fastest pair and its time for a benchmark row.
func (r Fig2Result) Best(bench string) (iosched.Pair, float64) {
	for i, b := range r.Benchmarks {
		if b != bench {
			continue
		}
		best, bt := r.Pairs[0], r.Seconds[i][0]
		for j, v := range r.Seconds[i] {
			if v < bt {
				best, bt = r.Pairs[j], v
			}
		}
		return best, bt
	}
	return iosched.Pair{}, 0
}

// DefaultTime returns the (CFQ, CFQ) time for a benchmark.
func (r Fig2Result) DefaultTime(bench string) float64 {
	for i, b := range r.Benchmarks {
		if b != bench {
			continue
		}
		for j, p := range r.Pairs {
			if p == iosched.DefaultPair {
				return r.Seconds[i][j]
			}
		}
	}
	return 0
}

// Variation returns (max-min)/min across pairs for a benchmark, optionally
// excluding Noop-in-VMM configurations as the paper does for its second
// set of numbers.
func (r Fig2Result) Variation(bench string, excludeNoopVMM bool) float64 {
	for i, b := range r.Benchmarks {
		if b != bench {
			continue
		}
		lo, hi := -1.0, -1.0
		for j, p := range r.Pairs {
			if excludeNoopVMM && p.VMM == iosched.Noop {
				continue
			}
			v := r.Seconds[i][j]
			if lo < 0 || v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo <= 0 {
			return 0
		}
		return (hi - lo) / lo
	}
	return 0
}

// Render formats the sweep.
func (r Fig2Result) Render() string {
	t := Table{
		Title:    "Fig 2: MapReduce execution time vs disk pair scheduler",
		Unit:     "s",
		ColHeads: pairCodes(r.Pairs),
		RowHeads: r.Benchmarks,
		Cells:    r.Seconds,
	}
	for _, b := range r.Benchmarks {
		best, bt := r.Best(b)
		def := r.DefaultTime(b)
		imp := 0.0
		if def > 0 {
			imp = 100 * (def - bt) / def
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: best %s %.1fs (%.1f%% over default %.1fs); variation %.0f%% (%.0f%% excl. Noop VMM)",
			b, best, bt, imp, def, 100*r.Variation(b, false), 100*r.Variation(b, true)))
	}
	return t.Render()
}

// Table1Result reproduces Table I: the sort benchmark's 4×4 matrix of
// execution times (rows: VM scheduler, columns: VMM scheduler).
type Table1Result struct {
	VMScheds  []string
	VMMScheds []string
	// Seconds[vm][vmm].
	Seconds [][]float64
}

// Table1 runs sort under every scheduler combination; the 16 cells are
// independent and run on the worker pool.
func Table1(cfg Config) Table1Result {
	bm := workloads.Sort(cfg.InputPerVM)
	res := Table1Result{VMScheds: iosched.Names, VMMScheds: iosched.Names}
	n := len(iosched.Names)
	res.Seconds = make([][]float64, n)
	for i := range res.Seconds {
		res.Seconds[i] = make([]float64, n)
	}
	parDo(cfg, n*n, func(k int) {
		i, j := k/n, k%n
		r := runPair(cfg, bm, iosched.Pair{VMM: iosched.Names[j], VM: iosched.Names[i]}, nil)
		res.Seconds[i][j] = r.Duration.Seconds()
	})
	return res
}

// Best returns the fastest cell.
func (r Table1Result) Best() (vmm, vm string, seconds float64) {
	seconds = r.Seconds[0][0]
	vm, vmm = r.VMScheds[0], r.VMMScheds[0]
	for i, row := range r.Seconds {
		for j, v := range row {
			if v < seconds {
				seconds, vm, vmm = v, r.VMScheds[i], r.VMMScheds[j]
			}
		}
	}
	return vmm, vm, seconds
}

// Default returns the (CFQ, CFQ) cell.
func (r Table1Result) Default() float64 {
	for i, vm := range r.VMScheds {
		if vm != iosched.CFQ {
			continue
		}
		for j, vmm := range r.VMMScheds {
			if vmm == iosched.CFQ {
				return r.Seconds[i][j]
			}
		}
	}
	return 0
}

// ColumnMean averages a VMM scheduler's column.
func (r Table1Result) ColumnMean(vmm string) float64 {
	for j, name := range r.VMMScheds {
		if name != vmm {
			continue
		}
		sum := 0.0
		for i := range r.VMScheds {
			sum += r.Seconds[i][j]
		}
		return sum / float64(len(r.VMScheds))
	}
	return 0
}

// Render formats the matrix like the paper's Table I.
func (r Table1Result) Render() string {
	t := Table{
		Title:    "Table I: sort execution time per (VMM, VM) scheduler",
		Unit:     "s",
		ColHeads: append([]string{}, r.VMMScheds...),
		RowHeads: append([]string{}, r.VMScheds...),
		Cells:    r.Seconds,
	}
	vmm, vm, best := r.Best()
	def := r.Default()
	imp := 0.0
	if def > 0 {
		imp = 100 * (def - best) / def
	}
	t.Notes = append(t.Notes, fmt.Sprintf("best (%s, %s) = %.1fs, %.1f%% over default %.1fs", vmm, vm, best, imp, def))
	t.Notes = append(t.Notes, fmt.Sprintf("VMM column means: cfq %.1f, deadline %.1f, anticipatory %.1f, noop %.1f",
		r.ColumnMean(iosched.CFQ), r.ColumnMean(iosched.Deadline),
		r.ColumnMean(iosched.Anticipatory), r.ColumnMean(iosched.Noop)))
	return t.Render()
}
