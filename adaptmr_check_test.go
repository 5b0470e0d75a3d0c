package adaptmr_test

import (
	"testing"

	"adaptmr"
)

// TestRunWithInvariantChecks runs a full MapReduce job with the runtime
// correctness harness attached to every block queue in the cluster; the
// checked run must succeed and agree with the unchecked run (observation
// must not perturb the simulation).
func TestRunWithInvariantChecks(t *testing.T) {
	job := adaptmr.SortBenchmark(96 << 20).Job
	plain, err := adaptmr.Run(quickCluster(), job, adaptmr.DefaultPair)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checked, err := adaptmr.Run(quickCluster(), job, adaptmr.DefaultPair,
		adaptmr.WithInvariantChecks())
	if err != nil {
		t.Fatalf("checked Run: %v", err)
	}
	if checked.Duration != plain.Duration || checked.NumMaps != plain.NumMaps {
		t.Fatalf("checker perturbed the run: %+v vs %+v", checked, plain)
	}
}

// TestTunerWithInvariantChecksParallel covers the concurrent use of one
// shared check.Set: parallel evaluation runs several checked clusters at
// once, each recording into the same set. Run under -race in CI.
func TestTunerWithInvariantChecksParallel(t *testing.T) {
	job := adaptmr.SortBenchmark(96 << 20).Job
	out, err := adaptmr.NewTuner(quickCluster(), job,
		adaptmr.WithParallelism(4), adaptmr.WithInvariantChecks()).
		WithCandidates([]adaptmr.Pair{
			adaptmr.DefaultPair,
			adaptmr.MustParsePair("ad"),
			adaptmr.MustParsePair("nc"),
		}).
		Tune()
	if err != nil {
		t.Fatalf("checked parallel Tune: %v", err)
	}
	if out.Duration <= 0 || out.Evaluations == 0 {
		t.Fatalf("tuning produced no work: %+v", out)
	}
}

// TestReportWithInvariantChecks exercises WithInvariantChecks on
// RunReport: the instrumented report run (tracer + metrics + sampler +
// checks all attached at once) must pass.
func TestReportWithInvariantChecks(t *testing.T) {
	cfg := quickCluster()
	job := adaptmr.SortBenchmark(96 << 20).Job
	rep, err := adaptmr.RunReport(cfg, job, adaptmr.DefaultPair, adaptmr.WithInvariantChecks())
	if err != nil {
		t.Fatalf("RunReport with checks: %v", err)
	}
	if rep.Bench.MakespanS <= 0 {
		t.Fatalf("empty report: %+v", rep.Bench)
	}
}

// TestCheckSetDirectUse drives the exported CheckSet through a cluster run
// built by hand (the paperbench wiring), asserting the accessors report a
// clean, balanced run.
func TestCheckSetDirectUse(t *testing.T) {
	checks := adaptmr.NewCheckSet()
	cfg := quickCluster()
	cfg.Check = checks
	if _, err := adaptmr.Run(cfg, adaptmr.SortBenchmark(96<<20).Job, adaptmr.DefaultPair); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checks.Finalize()
	if err := checks.Err(); err != nil {
		t.Fatalf("violations: %v", err)
	}
	if checks.Total() != 0 {
		t.Fatalf("%d violations recorded", checks.Total())
	}
	if len(checks.Violations()) != 0 {
		t.Fatal("violation list not empty")
	}
}

// TestPlanWithInvariantChecks runs an explicit switching plan under the
// checker: live elevator switches (drain + reinit stall mid-job) are the
// paths most likely to strand or double-complete requests.
func TestPlanWithInvariantChecks(t *testing.T) {
	job := adaptmr.SortBenchmark(96 << 20).Job
	tuner := adaptmr.NewTuner(quickCluster(), job, adaptmr.WithInvariantChecks())
	plan := adaptmr.NewPlan(adaptmr.TwoPhases, adaptmr.MustParsePair("ad"), adaptmr.DefaultPair)
	pr, err := tuner.RunPlan(plan)
	if err != nil {
		t.Fatalf("checked RunPlan: %v", err)
	}
	if pr.Duration <= 0 {
		t.Fatal("RunPlan produced no result")
	}
}
