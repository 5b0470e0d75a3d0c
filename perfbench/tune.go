package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"adaptmr"
	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/sim"
)

// paper-tune-sort: the meta-scheduler's search (Algorithm 1) for sort on
// the paper's 4 hosts × 4 VMs testbed, all 16 pairs, two-phase scheme.
const (
	tuneInputMB     = 256 // per VM, before the seed's trim
	tuneParallelism = 2
)

// tuneTrims are the input trims a seed picks from, in units of 64 KB off
// the per-VM input. The simulator ignores the cluster seed, so the trim
// is what makes inputs differ across seeds; these are the trims under
// which the search takes 19 evaluations, as it does at 256 MB, so every
// seed asks for the same amount of search work.
var tuneTrims = []int64{0, 1, 7, 8, 9, 10, 13, 19, 20, 21}

type tuneInst struct {
	cfg       adaptmr.ClusterConfig
	job       adaptmr.JobConfig
	ref       adaptmr.TuningResult
	refDigest string
	refEvents int64
}

// setupTune builds the testbed and job from the seed (the cluster seed and
// the input trim) and the parallelism-1 reference search, counting the
// events of each of its evaluations.
func setupTune(seed int64) (instance, error) {
	n := int64(len(tuneTrims))
	trim := tuneTrims[(seed%n+n)%n]
	t := &tuneInst{
		cfg: adaptmr.DefaultClusterConfig(),
		job: adaptmr.SortBenchmark(tuneInputMB<<20 - trim<<16).Job,
	}
	t.cfg.Seed = seed
	r := core.NewRunner(t.cfg, t.job)
	r.Parallelism = 1
	var engines []*sim.Engine
	r.OnEvaluation = func(_ core.Plan, cl *cluster.Cluster) { engines = append(engines, cl.Eng) }
	ref, err := core.Heuristic(r, core.TwoPhases, nil)
	if err != nil {
		return nil, err
	}
	t.ref, t.refDigest, t.refEvents = ref, tuneDigest(ref), eventsOf(engines)
	return t, nil
}

// rep runs one search through the public tuner, fresh and uncached.
func (t *tuneInst) rep() repResult {
	res, err := adaptmr.NewTuner(t.cfg, t.job, adaptmr.WithParallelism(tuneParallelism)).Tune()
	r := repResult{ops: 1, events: t.refEvents}
	if err := t.check(res, err); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: paper-tune-sort:", err)
		r.failed = 1
	}
	return r
}

// check compares a search with the reference and requires the paper's
// shape: the tuned plan beats (CFQ, CFQ).
func (t *tuneInst) check(res adaptmr.TuningResult, err error) error {
	switch {
	case err != nil:
		return err
	case tuneDigest(res) != t.refDigest:
		return fmt.Errorf("search differs from the parallelism-1 reference:\n got %s\nwant %s", tuneDigest(res), t.refDigest)
	case res.ImprovementOverDefault() <= 0:
		return fmt.Errorf("tuned plan %s does not beat (CFQ, CFQ)", res.Plan)
	}
	return nil
}

// tuneDigest renders everything a search decides: plan, durations,
// evaluation count, every profile and every search step.
func tuneDigest(res adaptmr.TuningResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s %d evals %d fellback %v default %d best %s %d",
		res.Plan, res.Duration, res.Evaluations, res.FellBack,
		res.Default.Duration, res.BestSingle.Plan, res.BestSingle.Duration)
	for _, p := range res.Profiles {
		fmt.Fprintf(&b, "|%s %d %v", p.Pair.Code(), p.Total, p.ByPhase)
	}
	for _, d := range res.Decisions {
		fmt.Fprintf(&b, "|%+v", d)
	}
	return b.String()
}

func (t *tuneInst) sim() simOutputs {
	durs := make([]float64, len(t.ref.Profiles))
	for i, p := range t.ref.Profiles {
		durs[i] = p.Total.Seconds()
	}
	return simOutputs{makespanS: t.ref.Duration.Seconds(), jobP95S: quantile(durs, 0.95)}
}

// traced repeats the search on the core runner the tuner wraps, with
// journeys, decisions, metrics, per-evaluation perf probes and chained
// hooks attached, then runs the tuned plan once under the tracer for its
// critical path.
func (t *tuneInst) traced([]measured) (map[string]float64, error) {
	cc := t.cfg
	cc.Obs = newSinks()
	r := core.NewRunner(cc, t.job)
	r.Parallelism = tuneParallelism
	r.CollectPerf = true
	var hooks hookSet
	var mu sync.Mutex
	var starts []time.Time
	var engines []*sim.Engine
	r.OnEvaluation = func(_ core.Plan, cl *cluster.Cluster) {
		hooks.attach(cl)
		mu.Lock()
		starts = append(starts, time.Now())
		engines = append(engines, cl.Eng)
		mu.Unlock()
	}
	t0 := time.Now()
	res, err := core.Heuristic(r, core.TwoPhases, nil)
	end := time.Now()
	if err := t.check(res, err); err != nil {
		return nil, err
	}
	if ev := eventsOf(engines); ev != t.refEvents {
		return nil, fmt.Errorf("hooks pass fired %d events, reference %d", ev, t.refEvents)
	}
	h := hooks.total()
	if n := cc.Obs.Metrics.Snapshot().Counters["net.flows"]; n != h.flows {
		return nil, fmt.Errorf("chained flow hook saw %d flows, metrics %d", h.flows, n)
	}
	out := map[string]float64{}
	simLayers(out, h, cc.Obs.Journeys.Summary(), cc.Obs.Decisions)

	// The profiling stage's evaluations carry perf probes; the search
	// steps after it run one at a time, so each lasts until the next
	// starts (the last until the search returns).
	var evalS []float64
	for _, p := range res.Profiles {
		evalS = append(evalS, p.Result.Perf.WallSeconds)
	}
	for i := len(res.Profiles); i < len(starts); i++ {
		next := end
		if i+1 < len(starts) {
			next = starts[i+1]
		}
		evalS = append(evalS, next.Sub(starts[i]).Seconds())
	}
	var busy float64
	for _, s := range evalS {
		busy += s
	}
	out["core.evaluations"] = float64(res.Evaluations)
	out["core.eval_ms_p50"] = 1000 * median(evalS)
	out["core.pool_busy_frac"] = busy / (end.Sub(t0).Seconds() * tuneParallelism)
	out["core.adaptive_gain_pct"] = 100 * res.ImprovementOverDefault()

	tr := adaptmr.NewTracer()
	run, err := adaptmr.NewTuner(t.cfg, t.job, adaptmr.WithTracer(tr)).RunPlan(t.ref.Plan)
	if err != nil {
		return nil, err
	}
	if run.Duration != t.ref.Duration {
		return nil, fmt.Errorf("traced plan run took %d, reference %d", run.Duration, t.ref.Duration)
	}
	rep, err := analyze.Build(tr, nil, nil, analyze.Options{})
	if err != nil {
		return nil, err
	}
	addCritPath(out, rep)
	addPhases(out, run.Job)
	return out, nil
}

func (t *tuneInst) close() {}

// eventsOf sums the events the engines fired.
func eventsOf(engines []*sim.Engine) int64 {
	var n int64
	for _, e := range engines {
		n += int64(e.EventsFired())
	}
	return n
}
