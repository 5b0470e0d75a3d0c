package adaptmr_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"adaptmr"
)

func quickCluster() adaptmr.ClusterConfig {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = 2
	cfg.VMsPerHost = 2
	return cfg
}

func TestPairFacade(t *testing.T) {
	ps := adaptmr.AllPairs()
	if len(ps) != 16 {
		t.Fatalf("pairs %d", len(ps))
	}
	p, err := adaptmr.ParsePair("ad")
	if err != nil || p.VMM != adaptmr.Anticipatory || p.VM != adaptmr.Deadline {
		t.Fatalf("ParsePair: %v %v", p, err)
	}
	if p, err := adaptmr.ParsePair("cc"); err != nil || p != adaptmr.DefaultPair {
		t.Fatalf("ParsePair(cc) = %v, %v; want the default pair", p, err)
	}
	if _, err := adaptmr.ParsePair("zz"); err == nil {
		t.Fatal("ParsePair accepted junk")
	}
}

func TestRunFacade(t *testing.T) {
	res, err := adaptmr.Run(quickCluster(), adaptmr.SortBenchmark(96<<20).Job, adaptmr.DefaultPair)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Duration <= 0 || res.NumMaps == 0 {
		t.Fatalf("result %+v", res)
	}
	// Run is deterministic: a second identical invocation reproduces the
	// result exactly.
	res2, err := adaptmr.Run(quickCluster(), adaptmr.SortBenchmark(96<<20).Job, adaptmr.DefaultPair)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res2.Duration != res.Duration || res2.NumMaps != res.NumMaps {
		t.Fatalf("Run is not deterministic: %+v vs %+v", res2, res)
	}
}

// TestEntryPointsAgree pins that Run, a tuner's RunPlan of the uniform
// two-phase plan and RunReport execute the same simulation, so the entry
// points cannot drift apart: Run's result equals the tuner run's job
// exactly, and the report's makespan is that run's duration.
func TestEntryPointsAgree(t *testing.T) {
	job := adaptmr.SortBenchmark(64 << 20).Job
	for _, pair := range []adaptmr.Pair{adaptmr.DefaultPair, adaptmr.MustParsePair("ad")} {
		direct, err := adaptmr.Run(quickCluster(), job, pair)
		if err != nil {
			t.Fatalf("%s: Run: %v", pair, err)
		}
		tuned, err := adaptmr.NewTuner(quickCluster(), job).RunPlan(adaptmr.UniformPlan(adaptmr.TwoPhases, pair))
		if err != nil {
			t.Fatalf("%s: RunPlan: %v", pair, err)
		}
		if !reflect.DeepEqual(direct, tuned.Job) {
			t.Errorf("%s: Run and RunPlan disagree:\n run     %+v\n runplan %+v", pair, direct, tuned.Job)
		}
		rep, err := adaptmr.RunReport(quickCluster(), job, pair)
		if err != nil {
			t.Fatalf("%s: RunReport: %v", pair, err)
		}
		if got, want := rep.Job.MakespanS, tuned.Duration.Seconds(); got != want {
			t.Errorf("%s: RunReport makespan %v s, RunPlan duration %v s", pair, got, want)
		}
	}
}

// TestRequestLifecyclesIdentical pins that a host's two block-request
// lifecycles simulate the same job, with and without journey tracing:
// the default recycling pool and the detect-only pool under invariant
// checking.
func TestRequestLifecyclesIdentical(t *testing.T) {
	job := adaptmr.SortBenchmark(96 << 20).Job
	var want []byte
	for _, tc := range []struct {
		name string
		opts []adaptmr.Option
	}{
		{"recycling-pool", nil},
		{"detect-only-pool", []adaptmr.Option{adaptmr.WithInvariantChecks()}},
		{"journey-recycling-pool", []adaptmr.Option{adaptmr.WithJourney()}},
		{"journey-detect-only-pool", []adaptmr.Option{adaptmr.WithJourney(), adaptmr.WithInvariantChecks()}},
	} {
		res, err := adaptmr.Run(quickCluster(), job, adaptmr.DefaultPair, tc.opts...)
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		// Observation summaries differ by construction; the simulated job
		// must not.
		res.Metrics, res.Perf, res.Journeys, res.Decisions = nil, nil, nil, nil
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: lifecycle changed the simulation (%d vs %d result bytes)", tc.name, len(got), len(want))
		}
	}
}

func TestBenchmarkFacade(t *testing.T) {
	if adaptmr.WordCountBenchmark(1).Job.Name != "wordcount" ||
		adaptmr.SortBenchmark(1).Job.Name != "sort" {
		t.Fatal("benchmark names")
	}
}

func TestTunerFacade(t *testing.T) {
	job := adaptmr.SortBenchmark(96 << 20).Job
	tuner := adaptmr.NewTuner(quickCluster(), job).
		WithScheme(adaptmr.TwoPhases).
		WithCandidates([]adaptmr.Pair{
			adaptmr.DefaultPair,
			adaptmr.MustParsePair("ad"),
			adaptmr.MustParsePair("nc"),
		})
	out, err := tuner.Tune()
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if out.Duration <= 0 {
		t.Fatal("no result")
	}
	if out.Duration > out.Default.Duration {
		t.Fatal("adaptive worse than default")
	}
	if tuner.Evaluations() == 0 {
		t.Fatal("evaluations not counted")
	}
	// Explicit plans and brute force are exposed too.
	plan := adaptmr.NewPlan(adaptmr.TwoPhases, adaptmr.MustParsePair("ad"), adaptmr.DefaultPair)
	pr, err := tuner.RunPlan(plan)
	if err != nil {
		t.Fatalf("RunPlan: %v", err)
	}
	if pr.Duration <= 0 {
		t.Fatal("RunPlan")
	}
	bf, err := tuner.BruteForce()
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	if bf.Duration > out.Duration {
		t.Fatal("brute force worse than heuristic")
	}
}

func TestTunerOptionsFacade(t *testing.T) {
	job := adaptmr.SortBenchmark(96 << 20).Job
	serial, err := adaptmr.NewTuner(quickCluster(), job, adaptmr.WithParallelism(1)).
		WithCandidates([]adaptmr.Pair{adaptmr.DefaultPair, adaptmr.MustParsePair("ad")}).
		Tune()
	if err != nil {
		t.Fatalf("serial Tune: %v", err)
	}
	par, err := adaptmr.NewTuner(quickCluster(), job, adaptmr.WithParallelism(4)).
		WithCandidates([]adaptmr.Pair{adaptmr.DefaultPair, adaptmr.MustParsePair("ad")}).
		Tune()
	if err != nil {
		t.Fatalf("parallel Tune: %v", err)
	}
	if serial.Plan.String() != par.Plan.String() || serial.Duration != par.Duration {
		t.Fatalf("parallelism changed the tuning outcome: %v/%v vs %v/%v",
			serial.Plan, serial.Duration, par.Plan, par.Duration)
	}
	if serial.Evaluations != par.Evaluations {
		t.Fatalf("evaluation counts differ: %d vs %d", serial.Evaluations, par.Evaluations)
	}
}

func TestUniformPlanFacade(t *testing.T) {
	p := adaptmr.UniformPlan(adaptmr.ThreePhases, adaptmr.DefaultPair)
	if p.NumSwitches() != 0 {
		t.Fatal("uniform plan switches")
	}
}

func TestRunExperimentsFacade(t *testing.T) {
	var sb strings.Builder
	if err := adaptmr.RunExperiments(adaptmr.QuickExperiments(), &sb, "", "table2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table II") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

// Degenerate job configs must surface as errors from every facade entry
// point instead of panicking deep in the runtime or simulating nonsense.
func TestValidationFacade(t *testing.T) {
	bad := adaptmr.SortBenchmark(96 << 20).Job
	bad.InputPerVM = 0

	if _, err := adaptmr.Run(quickCluster(), bad, adaptmr.DefaultPair); err == nil {
		t.Fatal("Run accepted a zero-input job")
	} else if !strings.Contains(err.Error(), "adaptmr:") {
		t.Fatalf("Run error not namespaced: %v", err)
	}
	if _, err := adaptmr.NewTuner(quickCluster(), bad).Tune(); err == nil {
		t.Fatal("Tune accepted a zero-input job")
	}
	if _, err := adaptmr.NewTuner(quickCluster(), bad).RunPlan(
		adaptmr.UniformPlan(adaptmr.TwoPhases, adaptmr.DefaultPair)); err == nil {
		t.Fatal("RunPlan accepted a zero-input job")
	}
	if _, err := adaptmr.RunOnline(quickCluster(), bad); err == nil {
		t.Fatal("RunOnline accepted a zero-input job")
	}
	good := adaptmr.SortBenchmark(96 << 20).Job
	if _, err := adaptmr.TuneChain(quickCluster(), []adaptmr.JobConfig{good, bad}); err == nil {
		t.Fatal("TuneChain accepted a zero-input stage")
	}

	noName := good
	noName.Name = ""
	if _, err := adaptmr.Run(quickCluster(), noName, adaptmr.DefaultPair); err == nil {
		t.Fatal("Run accepted a nameless job")
	}
}

// Fleet scenarios are validated the same way: schema typos and
// degenerate topologies error out of the facade before any simulation.
func TestFleetValidationFacade(t *testing.T) {
	if _, err := adaptmr.ParseFleetScenario([]byte(`{"name":"x","celz":2}`)); err == nil {
		t.Fatal("ParseFleetScenario accepted an unknown field")
	}
	bad := adaptmr.SmokeFleetScenario()
	bad.Jobs = nil
	if _, err := adaptmr.RunFleet(bad); err == nil {
		t.Fatal("RunFleet accepted a scenario with no jobs")
	}
	bad = adaptmr.SmokeFleetScenario()
	bad.Pair = "zz"
	if _, err := adaptmr.RunFleet(bad); err == nil {
		t.Fatal("RunFleet accepted an unknown scheduler pair")
	}
}
