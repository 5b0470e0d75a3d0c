package adaptmr

import (
	"fmt"

	"adaptmr/internal/analyze"
	"adaptmr/internal/control"
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
	return func(o *options) { o.online = p }
}

// OnlineResult is one job executed under the online controller: Job is
// the job's result; the embedded OnlineOutcome carries the start and
// final pair codes, the switch and window counts and the decision log;
// SwitchStall is the simulated time block queues spent stalled in the
// controller's switches; SimEvents is the engine's event count.
type OnlineResult = control.Result

// OnlineOutcome is one controller's record of its run: the pair it
// booted on (start_pair), the pair its last issued switch left installed
// (final_pair), the issued switches, the evaluated windows and the
// decision log.
type OnlineOutcome = control.Outcome

// RunOnline executes one job under the online adaptive controller: the
// cluster boots with the policy's start pair, and the controller samples
// the live Dom0 I/O mix every policy window, classifies the regime, and
// switches the (VMM, VM) elevator pair in-run through the hysteresis
// gates — no profiling runs, no prior knowledge of phase boundaries.
//
// Options: WithOnlineControl selects the policy; WithTracer, WithMetrics,
// WithJourney, WithDecisionLog, WithInvariantChecks, WithPerfStats and
// WithContext behave as on Run, and WithParallelism has no effect on
// this single run. Output is deterministic for a fixed cfg, job and
// policy.
func RunOnline(cfg ClusterConfig, job JobConfig, opts ...Option) (OnlineResult, error) {
	if err := job.Validate(); err != nil {
		return OnlineResult{}, fmt.Errorf("adaptmr: %w", err)
	}
	o := buildOptions(opts)
	res, _, err := control.Run(o.ctx, o.apply(cfg), job, o.online, o.perf, nil)
	if err != nil {
		return OnlineResult{}, fmt.Errorf("adaptmr: online run: %w", err)
	}
	if err := o.verify(nil); err != nil {
		return OnlineResult{}, err
	}
	return res, nil
}

// OnlineBench condenses an online run of job on cfg into the gate
// summary compared by CompareBenches, labelled from those inputs like
// RunReport's bench: workload "online:<job name>", the per-VM input in
// MB, the testbed and the seed.
func OnlineBench(res OnlineResult, cfg ClusterConfig, job JobConfig) Bench {
	return analyze.BenchFromOnline(cfg, job, res.Job, res.StartPairCode, res.Switches,
		res.SwitchStall, res.SimEvents)
}
