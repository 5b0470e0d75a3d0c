package core

import (
	"context"
	"testing"

	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/sim"
	"adaptmr/internal/workloads"
)

func smallCC() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 2
	cfg.VMsPerHost = 2
	return cfg
}

// ---------------------------------------------------------------------------
// Chains
// ---------------------------------------------------------------------------

func chainStages() []mapred.Config {
	filter := workloads.WordCountNoCombiner(96 << 20).Job
	filter.Name = "stage0-extract"
	agg := workloads.Sort(96 << 20).Job // input derived from stage 0
	agg.Name = "stage1-aggregate"
	return []mapred.Config{filter, agg}
}

func TestRunChainSequential(t *testing.T) {
	stages := chainStages()
	plans := []Plan{
		Uniform(TwoPhases, iosched.DefaultPair),
		Uniform(TwoPhases, iosched.DefaultPair),
	}
	res, err := RunChain(context.Background(), smallCC(), stages, plans)
	if err != nil {
		t.Fatalf("RunChain: %v", err)
	}
	if len(res.Stages) != 2 {
		t.Fatalf("stages completed: %d", len(res.Stages))
	}
	// Stages execute back to back on one timeline.
	s0, s1 := res.Stages[0].Result, res.Stages[1].Result
	if s1.Start < s0.Done {
		t.Fatal("stage 1 started before stage 0 finished")
	}
	if res.Duration < s0.Duration+s1.Duration {
		t.Fatalf("chain duration %v shorter than the stage sum", res.Duration)
	}
}

func TestChainDerivesInputs(t *testing.T) {
	cc := smallCC()
	stages := chainStages()
	derived := deriveChainInputs(cc, stages)
	want := int64(float64(stages[0].InputPerVM) * stages[0].MapOutputRatio * stages[0].ReduceOutputRatio)
	if want < cc.HDFS.BlockBytes {
		want = cc.HDFS.BlockBytes
	}
	if derived[1].InputPerVM != want {
		t.Fatalf("stage 1 input %d, want %d", derived[1].InputPerVM, want)
	}
}

func TestChainPlanArityChecked(t *testing.T) {
	_, err := RunChain(context.Background(), smallCC(), chainStages(), []Plan{Uniform(TwoPhases, iosched.DefaultPair)})
	if err == nil {
		t.Fatal("no error for plan/stage mismatch")
	}
}

func TestChainEmptyRejected(t *testing.T) {
	if _, err := RunChain(context.Background(), smallCC(), nil, nil); err == nil {
		t.Fatal("no error for empty chain")
	}
}

func TestChainSwitchesBetweenStages(t *testing.T) {
	stages := chainStages()
	ad := iosched.Pair{VMM: iosched.Anticipatory, VM: iosched.Deadline}
	plans := []Plan{
		Uniform(TwoPhases, iosched.DefaultPair),
		Uniform(TwoPhases, ad),
	}
	res, err := RunChain(context.Background(), smallCC(), stages, plans)
	if err != nil {
		t.Fatalf("RunChain: %v", err)
	}
	if len(res.Stages) != 2 {
		t.Fatal("chain incomplete")
	}
	// The pair change between stages must not break either stage.
	for i, st := range res.Stages {
		if st.Result.Duration <= 0 {
			t.Fatalf("stage %d broken", i)
		}
	}
}

func TestTuneChain(t *testing.T) {
	if testing.Short() {
		t.Skip("chain tuning runs many jobs")
	}
	out, err := TuneChain(context.Background(), smallCC(), chainStages(), 0)
	if err != nil {
		t.Fatalf("TuneChain: %v", err)
	}
	if len(out.Plans) != 2 {
		t.Fatalf("plans %d", len(out.Plans))
	}
	if out.Evaluations == 0 {
		t.Fatal("no evaluations")
	}
	if out.ImprovementOverDefault() < -0.02 {
		t.Fatalf("tuned chain clearly worse than default: %.1f%%",
			100*out.ImprovementOverDefault())
	}
}

// ---------------------------------------------------------------------------
// Predictor
// ---------------------------------------------------------------------------

func TestPredictorAdditivity(t *testing.T) {
	ad := iosched.Pair{VMM: iosched.Anticipatory, VM: iosched.Deadline}
	profiles := []Profile{
		{Pair: iosched.DefaultPair, Total: 100, ByPhase: [3]sim.Duration{40, 10, 50}},
		{Pair: ad, Total: 90, ByPhase: [3]sim.Duration{30, 10, 50}},
	}
	cost := func(from, to iosched.Pair) sim.Duration { return 5 }
	p := NewPredictor(profiles, cost)

	uniform := Uniform(TwoPhases, ad)
	if got := p.Predict(uniform); got != 90 {
		t.Fatalf("uniform prediction %v", got)
	}
	mixed := NewPlan(TwoPhases, ad, iosched.DefaultPair)
	// 30 (ad ph1) + 60 (cc ph2+3) + 5 (switch) = 95.
	if got := p.Predict(mixed); got != 95 {
		t.Fatalf("mixed prediction %v", got)
	}
}

func TestPredictorBestPlan(t *testing.T) {
	ad := iosched.Pair{VMM: iosched.Anticipatory, VM: iosched.Deadline}
	profiles := []Profile{
		{Pair: iosched.DefaultPair, ByPhase: [3]sim.Duration{40, 10, 40}},
		{Pair: ad, ByPhase: [3]sim.Duration{30, 10, 60}},
	}
	// Free switches: the optimum mixes ad's map phase with cc's reduce.
	p := NewPredictor(profiles, nil)
	plan, predicted := p.BestPlan(TwoPhases)
	if plan.Pairs[0] != ad || plan.Pairs[1] != iosched.DefaultPair {
		t.Fatalf("best plan %v", plan)
	}
	if predicted != 80 {
		t.Fatalf("predicted %v", predicted)
	}
	// Expensive switches flip the optimum back to uniform.
	p2 := NewPredictor(profiles, func(_, _ iosched.Pair) sim.Duration { return 50 })
	plan2, _ := p2.BestPlan(TwoPhases)
	if plan2.NumSwitches() != 0 {
		t.Fatalf("switch-heavy optimum %v despite huge costs", plan2)
	}
}

func TestPredictorAgainstSimulation(t *testing.T) {
	r := testRunner()
	cands := []iosched.Pair{cc, ad, nc}
	profiles, err := r.ProfilePairs(cands)
	if err != nil {
		t.Fatalf("ProfilePairs: %v", err)
	}
	p := NewPredictor(profiles, nil)
	// On uniform plans the prediction is exact by construction.
	for _, pair := range cands {
		plan := Uniform(TwoPhases, pair)
		e, err := p.PredictError(r, plan)
		if err != nil {
			t.Fatalf("PredictError: %v", err)
		}
		if e < -1e-9 || e > 1e-9 {
			t.Fatalf("uniform prediction error %.4f for %v", e, pair)
		}
	}
	// On a switching plan the additive model must stay within 25%.
	plan := NewPlan(TwoPhases, ad, cc)
	e, err := p.PredictError(r, plan)
	if err != nil {
		t.Fatalf("PredictError: %v", err)
	}
	if e < -0.25 || e > 0.25 {
		t.Fatalf("switching prediction error %.2f", e)
	}
}

func TestPredictorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty profiles")
		}
	}()
	NewPredictor(nil, nil)
}

func TestMatrixCost(t *testing.T) {
	pairs := []iosched.Pair{cc, ad}
	m := [][]sim.Duration{{1, 2}, {3, 4}}
	cost := MatrixCost(pairs, m)
	if cost(cc, ad) != 2 || cost(ad, cc) != 3 {
		t.Fatal("matrix lookup")
	}
	if cost(cc, nc) != 0 {
		t.Fatal("unknown pair should cost 0")
	}
}

// ---------------------------------------------------------------------------
// Heterogeneous clusters
// ---------------------------------------------------------------------------

func TestSlowHostStretchesJob(t *testing.T) {
	job := workloads.Sort(96 << 20).Job
	even := mustRun(t, NewRunner(smallCC(), job), Uniform(TwoPhases, iosched.DefaultPair))
	cfg := smallCC()
	cfg.HostDiskSlowdown = map[int]float64{1: 2.0}
	skew := mustRun(t, NewRunner(cfg, job), Uniform(TwoPhases, iosched.DefaultPair))
	if skew.Duration <= even.Duration {
		t.Fatalf("slow host did not stretch the job: %v vs %v", skew.Duration, even.Duration)
	}
}

func TestHeuristicStillSafeOnSkewedCluster(t *testing.T) {
	cfg := smallCC()
	cfg.HostDiskSlowdown = map[int]float64{0: 2.5}
	r := NewRunner(cfg, workloads.Sort(96<<20).Job)
	h := mustHeuristic(t, r, TwoPhases, []iosched.Pair{cc, ad, nc})
	// The paper warns the synchronised-phase assumption degrades with slow
	// nodes; the fallback guarantee must still hold.
	if h.Duration > h.BestSingle.Duration {
		t.Fatal("adaptive worse than best single on a skewed cluster")
	}
}
