// Benchmarks regenerating every table and figure of the paper on the
// scaled-down Quick testbed (so `go test -bench=.` completes in minutes).
// Use cmd/paperbench for the full-scale paper configuration.
//
// Each benchmark reports paper-relevant shape metrics alongside ns/op via
// b.ReportMetric, so a bench run doubles as a regression check on the
// reproduction's qualitative results.
package adaptmr_test

import (
	"testing"

	"adaptmr"
	"adaptmr/internal/experiments"
	"adaptmr/internal/iosched"
	"adaptmr/internal/workloads"
)

func quickCfg() experiments.Config { return experiments.Quick() }

// must unwraps (value, error) pairs inside benchmark bodies; a failed
// simulation is a harness bug, so aborting the bench run is correct.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// BenchmarkFig1SysbenchPairs regenerates Fig 1: sysbench elapsed time per
// pair at consolidation 1, 2 and 3 VMs.
func BenchmarkFig1SysbenchPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(quickCfg())
		b.ReportMetric(r.SlowdownVs1VM(2), "slowdown2vm")
		b.ReportMetric(r.SlowdownVs1VM(3), "slowdown3vm")
	}
}

// BenchmarkFig2PairSweep regenerates Fig 2: the three benchmarks across
// the candidate pairs.
func BenchmarkFig2PairSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(quickCfg())
		b.ReportMetric(100*r.Variation("sort", false), "sortVar%")
		b.ReportMetric(100*r.Variation("wordcount", false), "wcVar%")
	}
}

// BenchmarkTable1SortMatrix regenerates Table I: the 4×4 sort matrix.
func BenchmarkTable1SortMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(quickCfg())
		_, _, best := r.Best()
		b.ReportMetric(r.Default()/best, "defaultOverBest")
		b.ReportMetric(r.ColumnMean(iosched.Noop)/r.ColumnMean(iosched.CFQ), "noopOverCfq")
	}
}

// BenchmarkFig3ThroughputCDF regenerates Fig 3: VMM and VM throughput CDFs
// under (CFQ, CFQ) and (Anticipatory, Deadline).
func BenchmarkFig3ThroughputCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(quickCfg())
		b.ReportMetric(r.VMMMean[0], "ccVMM_MBps")
		b.ReportMetric(r.VMMMean[1], "adVMM_MBps")
		b.ReportMetric(r.FairnessSpread(0), "ccSpread")
	}
}

// BenchmarkFig4ProgressPoints regenerates Fig 4: per-pair running time at
// progress checkpoints plus the composed optimum.
func BenchmarkFig4ProgressPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(quickCfg())
		b.ReportMetric(100*r.OptimalImprovementOverDefault(), "optVsDef%")
		b.ReportMetric(100*r.OptimalImprovementOverBest(), "optVsBest%")
	}
}

// BenchmarkTable2Waves regenerates Table II: non-concurrent shuffle share
// vs map waves.
func BenchmarkTable2Waves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(quickCfg())
		b.ReportMetric(r.Percent[0], "pct@1wave")
		b.ReportMetric(r.Percent[len(r.Percent)-1], "pct@max")
	}
}

// BenchmarkFig5SwitchCost regenerates Fig 5 on a reduced state set: the
// dd-probe switch-cost matrix.
func BenchmarkFig5SwitchCost(b *testing.B) {
	cfg := quickCfg()
	cfg.Pairs = cfg.Pairs[:3]
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(cfg)
		b.ReportMetric(r.SelfCostMean(), "selfCost_s")
		b.ReportMetric(r.Asymmetry(), "asymmetry_s")
	}
}

// BenchmarkFig6PhaseProfile regenerates Fig 6: per-phase pair scores.
func BenchmarkFig6PhaseProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Fig6(quickCfg()))
		diff := 0.0
		if r.BestFor(0).Pair != r.BestFor(1).Pair {
			diff = 1.0
		}
		b.ReportMetric(diff, "phaseOptimaDiffer")
	}
}

// BenchmarkFig7aWorkloads regenerates Fig 7a: adaptive vs static across
// the three workloads.
func BenchmarkFig7aWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Fig7a(quickCfg()))
		for _, row := range r.Rows {
			if row.Scenario == "sort" {
				b.ReportMetric(100*row.ImprovementOverDefault(), "sortVsDef%")
			}
		}
	}
}

// BenchmarkFig7bConsolidation regenerates Fig 7b.
func BenchmarkFig7bConsolidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Fig7b(quickCfg()))
		tr := r.ImprovementTrend()
		b.ReportMetric(100*tr[len(tr)-1], "densest%")
	}
}

// BenchmarkFig7cDataSize regenerates Fig 7c.
func BenchmarkFig7cDataSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Fig7c(quickCfg()))
		tr := r.ImprovementTrend()
		b.ReportMetric(100*tr[len(tr)-1], "biggest%")
	}
}

// BenchmarkFig7dScale regenerates Fig 7d.
func BenchmarkFig7dScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Fig7d(quickCfg()))
		tr := r.ImprovementTrend()
		b.ReportMetric(100*tr[len(tr)-1], "largest%")
	}
}

// BenchmarkFig8Phases regenerates Fig 8: phase durations per benchmark.
func BenchmarkFig8Phases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Fig8(quickCfg()))
		_ = r.Render()
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §5): how the headline adaptive gain responds
// to the design knobs of the stack.
// ---------------------------------------------------------------------------

func quickTuner(mutate func(*adaptmr.ClusterConfig)) adaptmr.TuningResult {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = 2
	cfg.VMsPerHost = 2
	if mutate != nil {
		mutate(&cfg)
	}
	job := adaptmr.SortBenchmark(96 << 20).Job
	return must(adaptmr.NewTuner(cfg, job).WithCandidates([]adaptmr.Pair{
		adaptmr.DefaultPair,
		adaptmr.MustParsePair("ad"),
		adaptmr.MustParsePair("ac"),
		adaptmr.MustParsePair("dd"),
		adaptmr.MustParsePair("nc"),
	}).Tune())
}

// BenchmarkAblationAnticipationOff disables AS anticipation: AS degrades
// to a deadline-like elevator and loses its VMM-level edge.
func BenchmarkAblationAnticipationOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := quickTuner(func(c *adaptmr.ClusterConfig) {
			c.Host.Sched.AnticExpire = 0
		})
		b.ReportMetric(100*out.ImprovementOverDefault(), "vsDef%")
	}
}

// BenchmarkAblationNoSliceIdle disables CFQ idling: CFQ loses per-stream
// stickiness on dry queues.
func BenchmarkAblationNoSliceIdle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := quickTuner(func(c *adaptmr.ClusterConfig) {
			c.Host.Sched.SliceIdle = 0
		})
		b.ReportMetric(100*out.ImprovementOverDefault(), "vsDef%")
	}
}

// BenchmarkAblationFreeSwitch removes the elevator re-init stall,
// isolating the drain component of switch cost.
func BenchmarkAblationFreeSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := quickTuner(func(c *adaptmr.ClusterConfig) {
			c.Host.SwitchReinit = 0
		})
		b.ReportMetric(float64(out.Plan.NumSwitches()), "switches")
	}
}

// BenchmarkAblationThreePhases compares the 3-phase scheme against the
// paper's merged 2-phase default.
func BenchmarkAblationThreePhases(b *testing.B) {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = 2
	cfg.VMsPerHost = 2
	job := adaptmr.SortBenchmark(96 << 20).Job
	cands := []adaptmr.Pair{
		adaptmr.DefaultPair,
		adaptmr.MustParsePair("ad"),
		adaptmr.MustParsePair("dd"),
	}
	for i := 0; i < b.N; i++ {
		two := must(adaptmr.NewTuner(cfg, job).WithScheme(adaptmr.TwoPhases).WithCandidates(cands).Tune())
		three := must(adaptmr.NewTuner(cfg, job).WithScheme(adaptmr.ThreePhases).WithCandidates(cands).Tune())
		b.ReportMetric(two.Duration.Seconds(), "twoPhase_s")
		b.ReportMetric(three.Duration.Seconds(), "threePhase_s")
	}
}

// BenchmarkHeuristicVsBruteForce measures the heuristic's optimality gap
// and evaluation savings.
func BenchmarkHeuristicVsBruteForce(b *testing.B) {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = 2
	cfg.VMsPerHost = 2
	job := adaptmr.SortBenchmark(96 << 20).Job
	cands := []adaptmr.Pair{
		adaptmr.DefaultPair,
		adaptmr.MustParsePair("ad"),
		adaptmr.MustParsePair("ac"),
		adaptmr.MustParsePair("nc"),
	}
	for i := 0; i < b.N; i++ {
		tuner := adaptmr.NewTuner(cfg, job).WithCandidates(cands)
		h := must(tuner.Tune())
		heurEvals := tuner.Evaluations()
		bf := must(tuner.BruteForce())
		b.ReportMetric(100*(h.Duration.Seconds()-bf.Duration.Seconds())/bf.Duration.Seconds(), "optGap%")
		b.ReportMetric(float64(heurEvals), "heurEvals")
	}
}

// BenchmarkSimulatorEventRate measures raw simulation throughput (events
// per second of wall time) on a full sort job — the engine's own speed.
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := adaptmr.DefaultClusterConfig()
		cfg.Hosts = 2
		cfg.VMsPerHost = 2
		res, err := adaptmr.Run(cfg, workloads.Sort(96<<20).Job, adaptmr.DefaultPair)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Duration.Seconds(), "simSeconds")
	}
}

// ---------------------------------------------------------------------------
// Extension benches (paper future work implemented in internal/core)
// ---------------------------------------------------------------------------

// BenchmarkChainTuning tunes a two-stage chain and reports the chain-level
// gain over the all-default execution.
func BenchmarkChainTuning(b *testing.B) {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = 2
	cfg.VMsPerHost = 2
	stages := []adaptmr.JobConfig{
		workloads.WordCountNoCombiner(96 << 20).Job,
		adaptmr.SortBenchmark(96 << 20).Job,
	}
	for i := 0; i < b.N; i++ {
		out := must(adaptmr.TuneChain(cfg, stages))
		b.ReportMetric(100*out.ImprovementOverDefault(), "vsDef%")
		b.ReportMetric(float64(out.Evaluations), "evals")
	}
}
