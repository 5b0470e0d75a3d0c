package analyze

import (
	"testing"

	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/obs"
	"adaptmr/internal/workloads"
)

// TestDecisionTallyOnce pins that every scheduler decision is counted in
// one place: on a run with a registry and a decision log, each
// sched.<level>.<kind> counter equals the log's tally, and the report's
// merge and switch totals are the recorders' sums.
func TestDecisionTallyOnce(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Hosts, cfg.VMsPerHost = 2, 2
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	log := obs.NewDecisionLog()
	cfg.Obs = obs.Sink{Trace: tr, Metrics: reg, Decisions: log}
	pair, err := iosched.ParsePair("ac") // anticipatory Dom0, CFQ guests
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cfg)
	cl.InstallPair(pair)
	j := mapred.NewJob(cl, workloads.Sort(32<<20).Job)
	j.Start(nil)
	cl.Eng.Run()
	if !j.Done() {
		t.Fatal("job did not finish")
	}
	snap := reg.Snapshot()

	for _, level := range []string{"vm", "dom0"} {
		for k := obs.DecisionKind(0); k <= obs.DecSwitchEnd; k++ {
			name := "sched." + level + "." + k.String()
			got, ok := snap.Counters[name]
			if !ok {
				t.Errorf("%s not registered", name)
			}
			if want := log.Count(level, k); got != want {
				t.Errorf("%s = %d, decision log %d", name, got, want)
			}
		}
	}
	for _, name := range []string{"sched.dom0.antic.arm", "sched.vm.cfq.slice",
		"sched.vm.merge.back", "sched.dom0.merge.back", "sched.vm.switch.end"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0; the run exercises no such decision", name)
		}
	}

	rep, err := Build(tr, snap, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := func(level string) int64 {
		return log.Count(level, obs.DecMergeFront) + log.Count(level, obs.DecMergeBack)
	}
	if got, want := rep.Totals.MergedVM, merged("vm"); got != want {
		t.Errorf("Totals.MergedVM = %d, recorder sum %d", got, want)
	}
	if got, want := rep.Totals.MergedDom0, merged("dom0"); got != want {
		t.Errorf("Totals.MergedDom0 = %d, recorder sum %d", got, want)
	}
	if got, want := rep.Totals.Switches, log.Count("vm", obs.DecSwitchEnd)+log.Count("dom0", obs.DecSwitchEnd); got != want {
		t.Errorf("Totals.Switches = %d, recorder sum %d", got, want)
	}
}
