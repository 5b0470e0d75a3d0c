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
// Switch cost
// ---------------------------------------------------------------------------

// TestFigureFiveCost pins the modelled Fig-5 cost: staying costs nothing,
// and a switch costs the re-init stall plus the longer idle window of the
// pair being left, so leaving anticipatory costs more than entering it.
func TestFigureFiveCost(t *testing.T) {
	p := iosched.DefaultParams()
	// Distinct windows, so each case shows which side's idle was charged.
	p.AnticExpire, p.SliceIdle = 6*sim.Millisecond, 8*sim.Millisecond
	const reinit = 50 * sim.Millisecond
	cost := FigureFiveCost(reinit, p)
	pair := func(vmm, vm string) iosched.Pair { return iosched.Pair{VMM: vmm, VM: vm} }
	an := pair(iosched.Anticipatory, iosched.Noop)
	nn := pair(iosched.Noop, iosched.Noop)
	for _, tc := range []struct {
		name     string
		from, to iosched.Pair
		want     sim.Duration
	}{
		{"stay cfq", cc, cc, 0},
		{"stay anticipatory", pair(iosched.Anticipatory, iosched.Anticipatory), pair(iosched.Anticipatory, iosched.Anticipatory), 0},
		{"leave no idler", dd, cc, reinit},
		{"leave vmm anticipatory", ad, cc, reinit + p.AnticExpire},
		{"leave vm cfq", nc, ad, reinit + p.SliceIdle},
		{"vmm idle longer", pair(iosched.CFQ, iosched.Anticipatory), nn, reinit + p.SliceIdle},
		{"vm idle longer", pair(iosched.Anticipatory, iosched.CFQ), nn, reinit + p.SliceIdle},
		{"leave anticipatory", an, nn, reinit + p.AnticExpire},
		{"enter anticipatory", nn, an, reinit},
	} {
		if got := cost(tc.from, tc.to); got != tc.want {
			t.Errorf("%s: cost(%s → %s) = %v, want %v", tc.name, tc.from.Code(), tc.to.Code(), got, tc.want)
		}
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
