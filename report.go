package adaptmr

import (
	"fmt"

	"adaptmr/internal/analyze"
	"adaptmr/internal/core"
)

// Report is the full analysis artefact of one traced run: critical path
// with per-layer blame, per-phase breakdown tables, whole-run latency
// quantiles, totals and fixed-interval timeseries, plus — with
// WithJourney and WithDecisionLog — the request-journey and
// scheduler-decision sections. It marshals to deterministic JSON and
// renders via WriteMarkdown / WriteHTML.
type Report = analyze.Report

// Bench is the compact committed-to-git run summary the regression gate
// compares (configuration labels + watched scalar metrics).
type Bench = analyze.Bench

// Comparison is the outcome of gating a candidate Bench against a
// baseline; Regressed() reports whether any gated metric tripped.
type Comparison = analyze.Comparison

// RunReport executes one job under a single scheduler pair on a fresh
// cluster, fully instrumented (tracer, metrics and a live timeseries
// sampler), and analyzes the run into a Report whose bench is labelled
// with the job's name and per-VM input, the testbed and the pair.
// WithJourney plus WithDecisionLog add the explain sections, which answer
// "why this pair, this phase": every completed request's latency is
// attributed 100% to named stages (ns-exact), and every elevator decision
// is tallied per phase and queue level; the Markdown is then the plain
// report's followed by those sections. The report covers this run alone;
// WithTracer and WithMetrics receive its trace and metrics too.
// WithInvariantChecks and WithContext behave as on Run, and WithPerfStats
// embeds engine self-telemetry into the report's bench. Without
// WithPerfStats the report is byte-identical across invocations for a
// fixed cfg/job/pair.
func RunReport(cfg ClusterConfig, job JobConfig, pair Pair, opts ...Option) (*Report, error) {
	if err := job.Validate(); err != nil {
		return nil, fmt.Errorf("adaptmr: %w", err)
	}
	o := buildOptions(opts)
	rep, _, err := analyze.Run(o.ctx, o.apply(cfg), job, core.Uniform(core.TwoPhases, pair), o.perf, o.perf, nil)
	if err != nil {
		return nil, fmt.Errorf("adaptmr: instrumented run: %w", err)
	}
	if err := o.verify(nil); err != nil {
		return nil, err
	}
	return rep, nil
}

// CompareBenches gates a candidate bench against a baseline: every
// simulated field must match exactly, and the perf rows stay within
// their bounds. It errors when the two benches come from different run
// configurations.
func CompareBenches(base, cand Bench) (Comparison, error) {
	return analyze.Compare(base, cand)
}
