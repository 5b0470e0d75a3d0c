package adaptmr

import (
	"fmt"

	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/control"
	"adaptmr/internal/core"
	"adaptmr/internal/obs/perfstat"
	"adaptmr/internal/sim"
)

// OnlinePolicy parameterises the online adaptive controller: sampling
// window, regime thresholds, hysteresis (stability, dwell, cost budget)
// and the regime→pair mapping. Zero fields default to
// DefaultOnlinePolicy's values, so callers override only the knobs they
// care about.
type OnlinePolicy = control.Policy

// OnlineDecision is one controller evaluation where the classifier
// preferred a pair that was not installed — issued, or held with the
// hysteresis gate that held it, plus the window features it classified.
type OnlineDecision = control.Decision

// WindowStats are one sampling window's classified I/O features
// (read/write split, sync share, queue depth, seek distance).
type WindowStats = analyze.WindowStats

// DefaultOnlinePolicy returns the controller policy sized for
// paper-scale MapReduce phases: half-second windows, 1.5 s of regime
// agreement before a switch, ten-second dwell, anticipation in Dom0 for
// sync-read regimes and CFQ for write-heavy regimes.
func DefaultOnlinePolicy() OnlinePolicy { return control.DefaultPolicy() }

// SmokeOnlinePolicy returns DefaultOnlinePolicy rescaled for the CI
// smoke testbed (2×2 hosts, tens-of-MB inputs, seconds-long phases):
// 250 ms windows, two-window stability, one-second dwell, and a cost
// budget that admits the ~88 ms Fig-5 reinit stall at that dwell. The
// paper-scale default would never accumulate a streak inside a
// seconds-long job.
func SmokeOnlinePolicy() OnlinePolicy {
	p := control.DefaultPolicy()
	p.Window = 250 * sim.Millisecond
	p.MinDwell = sim.Second
	p.StableWindows = 2
	p.CostBudget = 0.1
	return p
}

// WithOnlineControl overrides the controller policy for RunOnline (and
// the per-cell controllers of RunFleetOnline). Omitting the option runs
// DefaultOnlinePolicy.
func WithOnlineControl(p OnlinePolicy) Option {
	return func(o *options) { o.online = &p }
}

// OnlineResult is one job executed under the online controller.
type OnlineResult struct {
	// Job is the executed job's result (phases, volumes, metrics).
	Job JobResult `json:"job"`
	// StartPair is the pair installed at boot; FinalPair is what the last
	// issued switch left installed (equal when the controller never
	// switched).
	StartPair Pair `json:"-"`
	FinalPair Pair `json:"-"`
	// StartPairCode / FinalPairCode are their two-letter codes, for the
	// JSON view.
	StartPairCode string `json:"start_pair"`
	FinalPairCode string `json:"final_pair"`
	// Switches counts issued switch commands; Windows counts evaluated
	// sampling windows.
	Switches int `json:"switches"`
	Windows  int `json:"windows"`
	// Decisions is the full decision log: every window where the
	// classifier wanted a different pair, issued or held.
	Decisions []OnlineDecision `json:"decisions"`
	// SwitchStall is the total simulated time block queues spent stalled
	// in elevator drains and re-inits caused by the controller's commands.
	SwitchStall sim.Duration `json:"switch_stall_ns"`
	// SimEvents is the engine's event count for the run.
	SimEvents uint64 `json:"sim_events"`
}

// RunOnline executes one job under the online adaptive controller: the
// cluster boots with the policy's start pair, and the controller samples
// the live Dom0 I/O mix every policy window, classifies the regime, and
// switches the (VMM, VM) elevator pair in-run through the hysteresis
// gates — no profiling runs, no prior knowledge of phase boundaries.
//
// Options: WithOnlineControl selects the policy; WithTracer, WithMetrics,
// WithJourney, WithDecisionLog, WithInvariantChecks, WithPerfStats and
// WithContext behave as on Run.
// Output is deterministic and byte-identical at every WithParallelism
// setting.
func RunOnline(cfg ClusterConfig, job JobConfig, opts ...Option) (OnlineResult, error) {
	if err := job.Validate(); err != nil {
		return OnlineResult{}, fmt.Errorf("adaptmr: %w", err)
	}
	o := buildOptions(opts)
	cfg = o.apply(cfg)

	pol := DefaultOnlinePolicy()
	if o.online != nil {
		pol = *o.online
	}

	// A fresh runner per call: the controller mutates the execution, so
	// memoisation must never answer for it. The runner still provides the ordered observation fold, context
	// checking and perf probing the other entry points share.
	r := core.NewRunner(cfg, job)
	r.Parallelism = o.parallelism
	r.Context = o.ctx
	r.CollectPerf = o.perf

	var ctrl *control.Controller
	var eng *sim.Engine
	r.OnEvaluation = func(_ core.Plan, cl *cluster.Cluster) {
		smp := analyze.NewSampler()
		smp.AttachCluster(cl)
		ctrl = control.New(pol)
		ctrl.Attach(cl, smp)
		eng = cl.Eng
	}

	// The plan is uniform: the controller is the only thing that switches.
	start := control.New(pol).Policy().StartPair
	res, err := r.Run(core.Uniform(core.TwoPhases, start))
	if err != nil {
		return OnlineResult{}, fmt.Errorf("adaptmr: online run: %w", err)
	}
	if err := o.verify(nil); err != nil {
		return OnlineResult{}, err
	}
	perfstat.Publish(cfg.Obs.Metrics, res.Perf)

	out := OnlineResult{
		Job:         res.Job,
		StartPair:   start,
		FinalPair:   ctrl.InstalledPair(),
		Switches:    ctrl.Switches(),
		Windows:     ctrl.Windows(),
		Decisions:   ctrl.Decisions(),
		SwitchStall: res.SwitchStall,
	}
	out.StartPairCode = out.StartPair.Code()
	out.FinalPairCode = out.FinalPair.Code()
	if eng != nil {
		out.SimEvents = eng.EventsFired()
	}
	return out, nil
}

// OnlineBench condenses an online run of job on cfg into the gate
// summary compared by CompareBenches, labelled from those inputs like
// RunReport's bench: workload "online:<job name>", the per-VM input in
// MB, the testbed and the seed.
func OnlineBench(res OnlineResult, cfg ClusterConfig, job JobConfig) Bench {
	j := res.Job
	return analyze.BenchFromOnline(analyze.OnlineRunSummary{
		Workload:  job.Name,
		Hosts:     cfg.Hosts,
		VMs:       cfg.VMsPerHost,
		InputMB:   job.InputPerVM >> 20,
		Seed:      cfg.Seed,
		StartPair: res.StartPairCode,
		FinalPair: res.FinalPairCode,
		Switches:  res.Switches,

		MakespanS:    j.Duration.Seconds(),
		MapS:         j.MapsDoneAt.Sub(j.Start).Seconds(),
		ShuffleS:     j.ShuffleDoneAt.Sub(j.MapsDoneAt).Seconds(),
		ReduceS:      j.Done.Sub(j.ShuffleDoneAt).Seconds(),
		SwitchStallS: res.SwitchStall.Seconds(),
		SimEvents:    int64(res.SimEvents),
	})
}
