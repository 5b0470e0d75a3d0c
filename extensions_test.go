package adaptmr_test

import (
	"context"
	"errors"
	"testing"

	"adaptmr"
)

func TestChainFacade(t *testing.T) {
	stages := []adaptmr.JobConfig{
		adaptmr.WordCountNoCombinerBenchmark(96 << 20).Job,
		adaptmr.SortBenchmark(96 << 20).Job,
	}
	plans := []adaptmr.Plan{
		adaptmr.UniformPlan(adaptmr.TwoPhases, adaptmr.DefaultPair),
		adaptmr.UniformPlan(adaptmr.TwoPhases, adaptmr.MustParsePair("ad")),
	}
	res, err := adaptmr.RunChain(quickCluster(), stages, plans)
	if err != nil {
		t.Fatalf("RunChain: %v", err)
	}
	if len(res.Stages) != 2 || res.Duration <= 0 {
		t.Fatalf("chain result %+v", res)
	}
}

// TestChainHonoursContext pins that chains and the instrumented run stop
// on WithContext: with an already-cancelled context RunChain, TuneChain
// and RunReport report an error wrapping context.Canceled instead of
// running to completion.
func TestChainHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stages := []adaptmr.JobConfig{
		adaptmr.SortBenchmark(64 << 20).Job,
		adaptmr.SortBenchmark(64 << 20).Job,
	}
	plans := []adaptmr.Plan{
		adaptmr.UniformPlan(adaptmr.TwoPhases, adaptmr.DefaultPair),
		adaptmr.UniformPlan(adaptmr.TwoPhases, adaptmr.DefaultPair),
	}
	if _, err := adaptmr.RunChain(quickCluster(), stages, plans, adaptmr.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("RunChain with a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := adaptmr.TuneChain(quickCluster(), stages, adaptmr.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("TuneChain with a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := adaptmr.RunReport(quickCluster(), stages[0], adaptmr.DefaultPair, adaptmr.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("RunReport with a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestPredictorFacade(t *testing.T) {
	job := adaptmr.SortBenchmark(96 << 20).Job
	tuner := adaptmr.NewTuner(quickCluster(), job).WithCandidates([]adaptmr.Pair{
		adaptmr.DefaultPair, adaptmr.MustParsePair("ad"),
	})
	out, err := tuner.Tune()
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	p := adaptmr.NewPredictor(out.Profiles, nil)
	plan := adaptmr.UniformPlan(adaptmr.TwoPhases, adaptmr.DefaultPair)
	if p.Predict(plan) != out.Default.Duration {
		t.Fatalf("uniform prediction %v != measured %v", p.Predict(plan), out.Default.Duration)
	}
	best, predicted := p.BestPlan(adaptmr.TwoPhases)
	if predicted <= 0 || len(best.Pairs) != 2 {
		t.Fatalf("best plan %v %v", best, predicted)
	}
}

func TestHeterogeneousClusterFacade(t *testing.T) {
	cfg := quickCluster()
	cfg.HostDiskSlowdown = map[int]float64{0: 2}
	res, err := adaptmr.Run(cfg, adaptmr.SortBenchmark(96<<20).Job, adaptmr.DefaultPair)
	if err != nil {
		t.Fatal(err)
	}
	even, err := adaptmr.Run(quickCluster(), adaptmr.SortBenchmark(96<<20).Job, adaptmr.DefaultPair)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= even.Duration {
		t.Fatal("slow host had no effect")
	}
}
