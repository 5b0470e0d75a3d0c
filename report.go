package adaptmr

import (
	"context"
	"fmt"

	"adaptmr/internal/analyze"
	"adaptmr/internal/core"
	"adaptmr/internal/obs"
)

// Report is the full analysis artefact of one traced run: critical path
// with per-layer blame, per-phase breakdown tables, whole-run latency
// quantiles, totals and fixed-interval timeseries, plus — for RunExplain —
// the request-journey and scheduler-decision sections. It marshals to
// deterministic JSON and renders via WriteMarkdown / WriteHTML.
type Report = analyze.Report

// Bench is the compact committed-to-git run summary the regression gate
// compares (configuration labels + watched scalar metrics).
type Bench = analyze.Bench

// Comparison is the outcome of gating a candidate Bench against a
// baseline; Regressed() reports whether any gated metric tripped.
type Comparison = analyze.Comparison

// ReportOptions labels and parameterises RunReport.
type ReportOptions struct {
	// Workload names the benchmark (e.g. "sort") in the report's bench
	// summary; InputMB is the per-datanode input volume label.
	Workload string
	InputMB  int64

	// TimeseriesPoints caps the fixed-interval sample count (default
	// 160).
	TimeseriesPoints int

	// CheckInvariants attaches the runtime correctness harness
	// (internal/check) to every block queue of the instrumented run; a
	// violation fails the report.
	CheckInvariants bool

	// CollectPerf wraps the run's event loop in an engine self-telemetry
	// probe and embeds the result (wall clock, events/sec, allocs/event)
	// into the report's bench summary. Wall-clock values differ across
	// runs, so reports produced with CollectPerf are NOT byte-identical;
	// leave it off for golden or determinism comparisons.
	CollectPerf bool
}

// RunReport executes one job under a single scheduler pair on a fresh,
// fully instrumented cluster (tracer + metrics + live timeseries
// sampler) and analyzes the run into a Report. The input cfg's Obs sink
// is replaced; the run is deterministic for a fixed cfg/job/pair, so the
// report is byte-identical across invocations.
func RunReport(cfg ClusterConfig, job JobConfig, pair Pair, opts ReportOptions) (*Report, error) {
	return runInstrumented(cfg, job, pair, opts, nil, nil)
}

// RunExplain is RunReport with the journey and decision logs attached too,
// so the Report also answers "why this pair, this phase": every completed
// request's latency is attributed 100% to named stages (ns-exact), and
// every elevator decision is tallied per phase and queue level. Its
// Markdown is RunReport's followed by the explain sections. Deterministic
// for a fixed cfg/job/pair, byte-identical across invocations.
func RunExplain(cfg ClusterConfig, job JobConfig, pair Pair, opts ReportOptions) (*Report, error) {
	return runInstrumented(cfg, job, pair, opts, obs.NewJourneyLog(), obs.NewDecisionLog())
}

// runInstrumented is the run behind RunReport and RunExplain: one job on
// a fresh cluster with a tracer, metrics and a live timeseries sampler
// attached, plus the journey and decision logs when they are non-nil.
// Hosts keep request pooling only while journeys are off.
func runInstrumented(cfg ClusterConfig, job JobConfig, pair Pair, opts ReportOptions,
	journeys *obs.JourneyLog, decisions *obs.DecisionLog) (*Report, error) {
	if err := job.Validate(); err != nil {
		return nil, fmt.Errorf("adaptmr: %w", err)
	}
	tracer := NewTracer()
	cfg.Obs = obs.Sink{Trace: tracer, Metrics: NewMetrics(), Journeys: journeys, Decisions: decisions}
	var checks *CheckSet
	if opts.CheckInvariants {
		checks = NewCheckSet()
		cfg.Check = checks
	}

	smp := analyze.NewSampler()
	run, err := core.Execute(context.TODO(), cfg, job, core.Uniform(core.TwoPhases, pair),
		opts.CollectPerf, smp.AttachCluster)
	if err != nil {
		return nil, fmt.Errorf("adaptmr: instrumented run: %w", err)
	}
	if checks != nil {
		checks.Finalize()
		if err := checks.Err(); err != nil {
			return nil, fmt.Errorf("adaptmr: instrumented run failed invariant checks: %w", err)
		}
	}

	return analyze.Build(tracer, run.Metrics, smp, analyze.Options{
		PIDBase:          0,
		Workload:         opts.Workload,
		Hosts:            cfg.Hosts,
		VMs:              cfg.VMsPerHost,
		InputMB:          opts.InputMB,
		Seed:             cfg.Seed,
		Pair:             pair.Code(),
		TimeseriesPoints: opts.TimeseriesPoints,
		Perf:             run.Perf,
		Journeys:         journeys,
		Decisions:        decisions,
	})
}

// CompareBenches gates a candidate bench against a baseline with the
// given relative tolerance (0.05 = 5%). It errors when the two benches
// come from different run configurations.
func CompareBenches(base, cand Bench, tol float64) (Comparison, error) {
	return analyze.Compare(base, cand, tol)
}
