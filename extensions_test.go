package adaptmr_test

import (
	"context"
	"errors"
	"testing"

	"adaptmr"
	"adaptmr/internal/workloads"
)

func TestChainFacade(t *testing.T) {
	stages := []adaptmr.JobConfig{
		workloads.WordCountNoCombiner(96 << 20).Job,
		adaptmr.SortBenchmark(96 << 20).Job,
	}
	out, err := adaptmr.TuneChain(quickCluster(), stages)
	if err != nil {
		t.Fatalf("TuneChain: %v", err)
	}
	if len(out.Plans) != 2 || out.Evaluations == 0 {
		t.Fatalf("chain tuning %d plans, %d evaluations", len(out.Plans), out.Evaluations)
	}
	for _, res := range []adaptmr.ChainResult{out.Tuned, out.Default} {
		if len(res.Stages) != 2 || res.Duration <= 0 {
			t.Fatalf("chain result %+v", res)
		}
	}
}

// TestChainHonoursContext pins that chain tuning and the instrumented run
// stop on WithContext: with an already-cancelled context TuneChain and
// RunReport report an error wrapping context.Canceled instead of running
// to completion.
func TestChainHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stages := []adaptmr.JobConfig{
		adaptmr.SortBenchmark(64 << 20).Job,
		adaptmr.SortBenchmark(64 << 20).Job,
	}
	if _, err := adaptmr.TuneChain(quickCluster(), stages, adaptmr.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("TuneChain with a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := adaptmr.RunReport(quickCluster(), stages[0], adaptmr.DefaultPair, adaptmr.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("RunReport with a cancelled context: err = %v, want context.Canceled", err)
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
