// Package adaptmr is a simulation-backed reproduction of "Adaptive Disk
// I/O Scheduling for MapReduce in Virtualized Environment" (Ibrahim et
// al., ICPP 2011): a full virtualized-Hadoop testbed model — Xen-style
// two-level block scheduling with the four Linux elevators, guest page
// cache and filesystem, HDFS, MapReduce runtime, and cluster network —
// plus the paper's contribution, a meta-scheduler that adaptively switches
// the (VMM, VM) disk-scheduler pair at phase boundaries of a single job.
//
// The package exposes a small facade over the internal engine. Entry
// points take functional options (WithTracer, WithMetrics,
// WithParallelism, WithEvalCache) and return errors instead of panicking:
//
//	cfg := adaptmr.DefaultClusterConfig()
//	job := adaptmr.SortBenchmark(512 << 20).Job
//	pair, err := adaptmr.ParsePair("cfq,cfq")
//	res, err := adaptmr.Run(cfg, job, pair)
//	fmt.Println(res.Duration)
//
//	tuner := adaptmr.NewTuner(cfg, job, adaptmr.WithParallelism(8))
//	out, err := tuner.Tune()
//	fmt.Println(out.Plan, out.ImprovementOverDefault())
//
// All simulations are deterministic for a given configuration and seed —
// including under parallel evaluation: results, traces and metrics are
// byte-identical at every parallelism setting.
package adaptmr

import (
	"context"
	"fmt"
	"io"

	"adaptmr/internal/check"
	"adaptmr/internal/cluster"
	"adaptmr/internal/control"
	"adaptmr/internal/core"
	"adaptmr/internal/experiments"
	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/obs"
	"adaptmr/internal/obs/perfstat"
	"adaptmr/internal/sim"
	"adaptmr/internal/workloads"
)

// Scheduler names accepted anywhere a scheduler is selected.
const (
	Noop         = iosched.Noop
	Deadline     = iosched.Deadline
	Anticipatory = iosched.Anticipatory
	CFQ          = iosched.CFQ
)

// Pair is a (VMM scheduler, VM scheduler) configuration.
type Pair = iosched.Pair

// DefaultPair is the stock (CFQ, CFQ) configuration.
var DefaultPair = iosched.DefaultPair

// AllPairs enumerates the 16 pair configurations.
func AllPairs() []Pair { return iosched.AllPairs() }

// ParsePair parses "ad" or "(anticipatory, deadline)" forms.
func ParsePair(s string) (Pair, error) { return iosched.ParsePair(s) }

// MustParsePair is ParsePair for known-valid literals.
func MustParsePair(s string) Pair {
	p, err := iosched.ParsePair(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ClusterConfig describes the virtual testbed (hosts, VMs, disk, guest OS,
// network, HDFS).
type ClusterConfig = cluster.Config

// DefaultClusterConfig returns the paper's testbed: 4 hosts × 4 VMs, one
// SATA disk per host, 1 GbE, 64 MB HDFS blocks with 2 replicas.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// JobConfig describes a MapReduce job (sizes, ratios, CPU costs, slots).
type JobConfig = mapred.Config

// DefaultJobConfig returns neutral sort-like job settings.
func DefaultJobConfig() JobConfig { return mapred.DefaultConfig() }

// JobResult summarises one executed job.
type JobResult = mapred.Result

// Workload couples a job configuration with the paper's disk-operation
// classification.
type Workload = workloads.Benchmark

// WordCountBenchmark is the light-disk wordcount (with combiner) workload.
func WordCountBenchmark(inputPerVM int64) Workload { return workloads.WordCount(inputPerVM) }

// WordCountNoCombinerBenchmark is the moderate-disk wordcount variant.
func WordCountNoCombinerBenchmark(inputPerVM int64) Workload {
	return workloads.WordCountNoCombiner(inputPerVM)
}

// SortBenchmark is the heavy-disk stream-sort workload.
func SortBenchmark(inputPerVM int64) Workload { return workloads.Sort(inputPerVM) }

// BenchmarkSuite returns the paper's three benchmarks.
func BenchmarkSuite(inputPerVM int64) []Workload { return workloads.Suite(inputPerVM) }

// ---------------------------------------------------------------------------
// Options (facade API v3)
// ---------------------------------------------------------------------------

// Option configures an entry point (Run, NewTuner, TuneChain, ...). The
// zero set of options reproduces the default behaviour: no observation,
// GOMAXPROCS evaluation workers, no on-disk cache.
type Option func(*options)

type options struct {
	tracer       *obs.Tracer
	metrics      *obs.Registry
	journeys     *obs.JourneyLog
	decisions    *obs.DecisionLog
	parallelism  int
	evalCacheDir string
	evalCache    *core.EvalCache
	ctx          context.Context
	check        *check.Set
	perf         bool
	online       *control.Policy
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// apply copies the observation options onto a cluster config.
func (o options) apply(cfg ClusterConfig) ClusterConfig {
	if o.tracer != nil {
		cfg.Obs.Trace = o.tracer
	}
	if o.metrics != nil {
		cfg.Obs.Metrics = o.metrics
	}
	if o.journeys != nil {
		cfg.Obs.Journeys = o.journeys
	}
	if o.decisions != nil {
		cfg.Obs.Decisions = o.decisions
	}
	if o.check != nil {
		cfg.Check = o.check
	}
	return cfg
}

// verify runs the end-of-run invariant audit when checking is enabled and
// the run completed; abandoned runs (err != nil) skip the audit because a
// half-drained simulation legitimately holds in-flight requests.
func (o options) verify(err error) error {
	if err != nil || o.check == nil {
		return err
	}
	o.check.Finalize()
	if cerr := o.check.Err(); cerr != nil {
		return fmt.Errorf("adaptmr: invariant check failed: %w", cerr)
	}
	return nil
}

// WithTracer records every simulated layer's events into t (export with
// t.WriteFile / t.WriteJSON; the format loads in Perfetto).
func WithTracer(t *Tracer) Option { return func(o *options) { o.tracer = t } }

// WithMetrics aggregates counters/gauges/histograms into m.
func WithMetrics(m *Metrics) Option { return func(o *options) { o.metrics = m } }

// WithJourney threads per-request journey tracing through the two-level
// block stack: every guest submission gets a journey id that follows it
// across the blkfront/blkback ring into the Dom0 queue and onto the disk,
// and completes into an ns-exact latency decomposition (guest queueing,
// switch stalls, ring transit, Dom0 queueing, seek/rotation/transfer).
// The aggregate lands on JobResult.Journeys (and on RunResult.Journeys
// for tuner entry points).
func WithJourney() Option {
	return func(o *options) { o.journeys = obs.NewJourneyLog() }
}

// WithDecisionLog records scheduler decision provenance — why each
// elevator dispatched what it dispatched (deadline expiry vs batch
// continuation, anticipation outcomes, CFQ slice lifecycle) plus
// queue-level merges and switch drains — tallied per queue level onto
// JobResult.Decisions (and RunResult.Decisions for tuner entry points).
// Without this option, a tracer or a metrics registry the hook is nil, so
// the disabled path stays allocation-free.
func WithDecisionLog() Option {
	return func(o *options) { o.decisions = obs.NewDecisionLog() }
}

// JourneySummary aggregates a run's request-journey latency
// decompositions (see WithJourney); the per-stage nanoseconds sum exactly
// to the total.
type JourneySummary = obs.JourneySummary

// DecisionSummary is a run's per-queue-level scheduler decision tallies
// (see WithDecisionLog).
type DecisionSummary = obs.DecisionSummary

// WithInvariantChecks attaches the runtime correctness harness
// (internal/check) to every block queue the entry point builds: each
// request's lifecycle, the queue depth, elevator-switch drains, merge byte
// conservation and the schedulers' starvation bounds are verified as the
// simulation runs, and an end-of-run audit confirms nothing leaked. A
// violation surfaces as an error from the entry point. Overhead is a few
// percent; the zero-option default runs unchecked.
func WithInvariantChecks() Option {
	return func(o *options) { o.check = check.NewSet() }
}

// WithParallelism sets the evaluation worker count for tuners and chain
// tuning. n <= 0 (the default) means GOMAXPROCS. Output is byte-identical
// at every setting.
func WithParallelism(n int) Option { return func(o *options) { o.parallelism = n } }

// WithEvalCache enables the on-disk content-addressed evaluation cache
// rooted at dir: repeated evaluations of the same (cluster, job, plan)
// triple are answered from disk instead of re-simulated. The cache is
// bypassed while a tracer or metrics registry is attached, because cached
// results cannot replay their observations.
func WithEvalCache(dir string) Option { return func(o *options) { o.evalCacheDir = dir } }

// WithEvalCacheHandle is WithEvalCache for an already-open cache. A
// long-lived holder (the adaptd service) shares one handle across many
// tuners so hit/miss/bypass tallies aggregate in one place
// (EvalCache.Stats). Takes precedence over WithEvalCache when both are
// supplied.
func WithEvalCacheHandle(c *EvalCache) Option { return func(o *options) { o.evalCache = c } }

// WithPerfStats collects engine self-telemetry around each executed
// simulation: wall clock, events processed, events/sec, allocation and GC
// deltas. Run places the measurement on JobResult.Perf; tuner entry points
// place per-evaluation stats on each RunResult.Perf and publish perf.*
// gauges into the attached metrics registry. Off by default: the probe's
// runtime.ReadMemStats calls briefly stop the world, and the values are
// machine-dependent (never cached, never byte-deterministic).
func WithPerfStats() Option { return func(o *options) { o.perf = true } }

// PerfStat is one run's engine self-telemetry (see WithPerfStats).
type PerfStat = perfstat.Stat

// WithContext bounds every evaluation with ctx: cancellation or deadline
// expiry is checked before each evaluation and periodically inside the
// simulation event loop, so a tuning search can be abandoned mid-run.
// The entry point reports the context's error. A tuner whose context has
// fired should be discarded (failed evaluations are memoised).
//
// Honoured by Run and every NewTuner entry point (Tune, RunPlan,
// BruteForce, Profile) and by RunOnline; RunChain/TuneChain currently
// ignore it.
func WithContext(ctx context.Context) Option { return func(o *options) { o.ctx = ctx } }

// CheckSet aggregates runtime invariant checkers and their violations
// (see WithInvariantChecks). Experiment drivers that build cluster
// configs directly can attach one via ClusterConfig.Check and audit it
// with Finalize + Err once the runs complete. Safe for concurrent use
// across parallel evaluations.
type CheckSet = check.Set

// NewCheckSet returns an empty invariant-checker set.
func NewCheckSet() *CheckSet { return check.NewSet() }

// EvalCache is the on-disk content-addressed evaluation cache (see
// WithEvalCache / WithEvalCacheHandle). Safe for concurrent use.
type EvalCache = core.EvalCache

// EvalCacheStats are an EvalCache's lifetime hit/miss/bypass tallies.
type EvalCacheStats = core.EvalCacheStats

// OpenEvalCache opens (creating if needed) an evaluation cache rooted at
// dir; attach it with WithEvalCacheHandle.
func OpenEvalCache(dir string) (*EvalCache, error) { return core.OpenEvalCache(dir) }

// Run executes one job under a single scheduler pair on a fresh
// deterministic cluster and returns its result. WithTracer/WithMetrics
// attach observation; WithParallelism and WithEvalCache are accepted but
// have no effect on a single direct run.
func Run(cfg ClusterConfig, job JobConfig, pair Pair, opts ...Option) (JobResult, error) {
	if err := job.Validate(); err != nil {
		return JobResult{}, fmt.Errorf("adaptmr: %w", err)
	}
	o := buildOptions(opts)
	cfg = o.apply(cfg)
	cl := cluster.New(cfg)
	cl.InstallPair(pair)
	j := mapred.NewJob(cl, job)
	j.Start(nil)
	probe := perfstat.Start(o.perf, cl.Eng)
	if err := core.RunEngine(o.ctx, cl.Eng); err != nil {
		return JobResult{}, fmt.Errorf("adaptmr: job %q abandoned: %w", job.Name, err)
	}
	perf := probe.Stop()
	if !j.Done() {
		return JobResult{}, fmt.Errorf("adaptmr: job %q did not complete (simulation drained early)", job.Name)
	}
	if err := o.verify(nil); err != nil {
		return JobResult{}, err
	}
	perfstat.Publish(cfg.Obs.Metrics, perf)
	res := j.Result()
	res.Perf = perf
	res.Journeys = cfg.Obs.Journeys.Summary()
	res.Decisions = cfg.Obs.Decisions.Summary()
	return res, nil
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

// Tracer records span/instant events across every simulated layer (disk,
// elevators, Xen ring, network, MapReduce tasks and phases) and exports
// Chrome trace-event JSON loadable in Perfetto or chrome://tracing.
type Tracer = obs.Tracer

// NewTracer returns an empty tracer; attach it with WithTracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// Metrics is a registry of counters, gauges and histograms the simulation
// populates (per-level I/O latency, merge and seek behaviour, scheduler
// decisions, switch costs, per-phase volumes).
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry; attach it with
// WithMetrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsSnapshot is an exportable (JSON/CSV) copy of a metrics registry;
// JobResult.Metrics and RunResult.Metrics carry one per executed job.
type MetricsSnapshot = obs.Snapshot

// Plan assigns a scheduler pair to each phase of a job.
type Plan = core.Plan

// Scheme selects the phase granularity of a plan.
type Scheme = core.Scheme

// Phase schemes: two phases (switch at maps-done, the paper's default for
// ≥4 map waves) or three (additionally at shuffle-done).
const (
	TwoPhases   = core.TwoPhases
	ThreePhases = core.ThreePhases
)

// UniformPlan uses one pair for every phase (no switches).
func UniformPlan(scheme Scheme, p Pair) Plan { return core.Uniform(scheme, p) }

// NewPlan builds an explicit phase plan.
func NewPlan(scheme Scheme, pairs ...Pair) Plan { return core.NewPlan(scheme, pairs...) }

// TuningResult is the meta-scheduler's outcome.
type TuningResult = core.HeuristicResult

// Profile is one pair's profiled per-phase durations.
type Profile = core.Profile

// Tuner runs the paper's adaptive meta-scheduler for one job on one
// testbed configuration. Its evaluations execute on a worker pool
// (WithParallelism) with single-flight memoisation, and may be served
// from an on-disk cache (WithEvalCache); results are identical to a
// serial, uncached run.
type Tuner struct {
	runner  *core.Runner
	scheme  Scheme
	pairs   []Pair
	initErr error
	opts    options
}

// NewTuner creates a tuner over all 16 pairs with the two-phase scheme.
// Options: WithTracer, WithMetrics, WithParallelism, WithEvalCache.
func NewTuner(cfg ClusterConfig, job JobConfig, opts ...Option) *Tuner {
	o := buildOptions(opts)
	cfg = o.apply(cfg)
	r := core.NewRunner(cfg, job)
	r.Parallelism = o.parallelism
	r.Context = o.ctx
	r.CollectPerf = o.perf
	t := &Tuner{runner: r, scheme: core.TwoPhases, opts: o}
	if err := job.Validate(); err != nil {
		t.initErr = fmt.Errorf("adaptmr: %w", err)
		return t
	}
	switch {
	case o.evalCache != nil:
		r.DiskCache = o.evalCache
	case o.evalCacheDir != "":
		cache, err := core.OpenEvalCache(o.evalCacheDir)
		if err != nil {
			t.initErr = err
		} else {
			r.DiskCache = cache
		}
	}
	return t
}

// WithScheme selects the phase scheme.
func (t *Tuner) WithScheme(s Scheme) *Tuner { t.scheme = s; return t }

// WithCandidates restricts the candidate pairs.
func (t *Tuner) WithCandidates(pairs []Pair) *Tuner { t.pairs = pairs; return t }

// Tune profiles the candidates and runs the heuristic (Algorithm 1),
// returning the chosen plan alongside the default and best-single
// reference runs.
func (t *Tuner) Tune() (TuningResult, error) {
	if t.initErr != nil {
		return TuningResult{}, t.initErr
	}
	res, err := core.Heuristic(t.runner, t.scheme, t.pairs)
	if err := t.opts.verify(err); err != nil {
		return TuningResult{}, err
	}
	return res, nil
}

// RunPlan executes the job under an explicit plan (switching pairs at
// phase boundaries, switch costs included).
func (t *Tuner) RunPlan(p Plan) (core.RunResult, error) {
	if t.initErr != nil {
		return core.RunResult{}, t.initErr
	}
	res, err := t.runner.Run(p)
	if err := t.opts.verify(err); err != nil {
		return core.RunResult{}, err
	}
	return res, nil
}

// BruteForce exhaustively evaluates every plan (S^P job executions,
// memoised, batched onto the worker pool) and returns the optimum —
// feasible here because the testbed is simulated.
func (t *Tuner) BruteForce() (core.RunResult, error) {
	if t.initErr != nil {
		return core.RunResult{}, t.initErr
	}
	res, err := core.BruteForce(t.runner, t.scheme, t.pairs)
	if err := t.opts.verify(err); err != nil {
		return core.RunResult{}, err
	}
	return res, nil
}

// Profile runs the job once per candidate pair with no switching and
// returns per-phase durations — the meta-scheduler's profiling stage.
// The runs are independent and execute on the worker pool.
func (t *Tuner) Profile() ([]Profile, error) {
	if t.initErr != nil {
		return nil, t.initErr
	}
	pairs := t.pairs
	if len(pairs) == 0 {
		pairs = iosched.AllPairs()
	}
	res, err := t.runner.ProfilePairs(pairs)
	if err := t.opts.verify(err); err != nil {
		return nil, err
	}
	return res, nil
}

// Evaluations reports how many distinct job executions the tuner has run
// (disk-cache hits excluded).
func (t *Tuner) Evaluations() int { return t.runner.Evaluations }

// CacheStats reports the attached evaluation cache's hit/miss/bypass
// tallies; ok is false when the tuner runs without an on-disk cache.
// With a shared handle (WithEvalCacheHandle) the tallies span every
// tuner using that handle.
func (t *Tuner) CacheStats() (EvalCacheStats, bool) {
	if t.runner.DiskCache == nil {
		return EvalCacheStats{}, false
	}
	return t.runner.DiskCache.Stats(), true
}

// ---------------------------------------------------------------------------
// Extensions from the paper's future-work agenda
// ---------------------------------------------------------------------------

// ChainResult is a chained (Pig-style) multi-job execution.
type ChainResult = core.ChainResult

// ChainTuning is the result of tuning a chain stage by stage.
type ChainTuning = core.ChainTuning

// RunChain executes MapReduce stages back to back on one cluster, applying
// one phase plan per stage; later stages read the data volume the previous
// stage produced.
func RunChain(cfg ClusterConfig, stages []JobConfig, plans []Plan, opts ...Option) (ChainResult, error) {
	for _, s := range stages {
		if err := s.Validate(); err != nil {
			return ChainResult{}, fmt.Errorf("adaptmr: %w", err)
		}
	}
	o := buildOptions(opts)
	res, err := core.RunChain(o.apply(cfg), stages, plans)
	if err := o.verify(err); err != nil {
		return ChainResult{}, err
	}
	return res, nil
}

// TuneChain tunes each stage with the two-phase heuristic and compares the
// composed chain against the all-default execution. WithParallelism sets
// each stage's evaluation worker count.
func TuneChain(cfg ClusterConfig, stages []JobConfig, opts ...Option) (ChainTuning, error) {
	for _, s := range stages {
		if err := s.Validate(); err != nil {
			return ChainTuning{}, fmt.Errorf("adaptmr: %w", err)
		}
	}
	o := buildOptions(opts)
	res, err := core.TuneChain(o.apply(cfg), stages, o.parallelism)
	if err := o.verify(err); err != nil {
		return ChainTuning{}, err
	}
	return res, nil
}

// Predictor estimates plan times from profiles plus a switch-cost model
// without running simulations (the paper's envisioned prediction model).
type Predictor = core.Predictor

// NewPredictor builds a predictor over profiling data; cost may be nil to
// treat switches as free.
func NewPredictor(profiles []core.Profile, cost func(from, to Pair) sim.Duration) *Predictor {
	return core.NewPredictor(profiles, cost)
}

// ExperimentsConfig parameterises the paper-artefact generators.
type ExperimentsConfig = experiments.Config

// PaperExperiments returns the full-paper experiment configuration.
func PaperExperiments() ExperimentsConfig { return experiments.Default() }

// QuickExperiments returns a scaled-down configuration for smoke runs.
func QuickExperiments() ExperimentsConfig { return experiments.Quick() }

// RunExperiments regenerates the paper's tables and figures (all of them,
// or the named subset: "fig1".."fig8", "table1", "table2") and writes the
// rendered artefacts to w.
func RunExperiments(cfg ExperimentsConfig, w io.Writer, only ...string) error {
	return experiments.All(cfg, w, only...)
}

// RunExperimentsCSV is RunExperiments with per-artefact CSV data written to
// csvDir (skipped when csvDir is empty).
func RunExperimentsCSV(cfg ExperimentsConfig, w io.Writer, csvDir string, only ...string) error {
	return experiments.AllWithCSV(cfg, w, csvDir, only...)
}
