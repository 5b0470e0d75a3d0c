package analyze_test

import (
	"context"
	"testing"

	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/iosched"
	"adaptmr/internal/workloads"
)

// TestRunLabelsBenchFromInputs pins how the instrumented run labels its
// bench: the job's name, the per-VM input in MB, the testbed and seed,
// and the plan as one pair code when uniform or every phase's code
// joined by '|' otherwise. The wire hook runs once, handed the sampler
// the report's timeseries comes from.
func TestRunLabelsBenchFromInputs(t *testing.T) {
	cc := cluster.DefaultConfig()
	cc.Hosts, cc.VMsPerHost, cc.Seed = 2, 2, 7
	job := workloads.WordCountNoCombiner(16 << 20).Job
	ad := iosched.Pair{VMM: iosched.Anticipatory, VM: iosched.Deadline}
	for _, tc := range []struct {
		plan core.Plan
		pair string
	}{
		{core.Uniform(core.TwoPhases, iosched.DefaultPair), "cc"},
		{core.NewPlan(core.ThreePhases, ad, iosched.DefaultPair, iosched.DefaultPair), "ad|cc|cc"},
	} {
		wired := 0
		rep, _, err := analyze.Run(context.Background(), cc, job, tc.plan, false, false,
			func(_ *cluster.Cluster, smp *analyze.Sampler) {
				if smp == nil {
					t.Error("wire handed a nil sampler")
				}
				wired++
			})
		if err != nil {
			t.Fatalf("%s: %v", tc.pair, err)
		}
		b := rep.Bench
		if b.Workload != "wordcount-nc" || b.InputMB != 16 || b.Hosts != 2 || b.VMs != 2 || b.Seed != 7 || b.Pair != tc.pair {
			t.Errorf("%s: bench labels %q %d MB %d×%d seed %d pair %q", tc.pair,
				b.Workload, b.InputMB, b.Hosts, b.VMs, b.Seed, b.Pair)
		}
		if wired != 1 || rep.Timeseries == nil {
			t.Errorf("%s: wire ran %d times, timeseries %v", tc.pair, wired, rep.Timeseries != nil)
		}
	}
}
