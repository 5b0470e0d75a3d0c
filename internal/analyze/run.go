package analyze

import (
	"context"
	"strings"

	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/mapred"
	"adaptmr/internal/obs"
)

// Run is the one instrumented single run, behind adaptmr.RunReport and
// adaptd's streamed /v1/run: it executes job under plan on a fresh
// cluster built from cfg (core.Execute) with a tracer, a metrics registry
// and a live Sampler attached, and analyzes the run into a Report whose
// bench is labelled from the inputs (job name and per-VM input, testbed,
// seed, plan). The run records into fresh instruments of its own, so the
// report covers this run alone, and a completed run folds them into cfg's
// tracer, registry and logs, whichever are set (obs.Sink.Absorb). cfg's
// journey and decision logs, when set, add the explain sections. wire,
// when non-nil, extends the cluster after the sampler attached and is
// handed that sampler. perf collects engine self-telemetry onto the
// result; benchPerf also embeds it in the report's bench, whose
// wall-clock values then differ between runs. Invariant checks attached
// through cfg.Check are the caller's to audit.
func Run(ctx context.Context, cfg cluster.Config, job mapred.Config, plan core.Plan,
	perf, benchPerf bool, wire func(*cluster.Cluster, *Sampler)) (*Report, core.RunResult, error) {
	own := cfg.Obs
	cfg.Obs = own.Private(0, own.RunLabel)
	cfg.Obs.Trace, cfg.Obs.Metrics = obs.NewTracer(), obs.NewRegistry()
	smp := NewSampler()
	res, err := core.Execute(ctx, cfg, job, plan, perf, func(cl *cluster.Cluster) {
		smp.AttachCluster(cl)
		if wire != nil {
			wire(cl, smp)
		}
	})
	if err != nil {
		return nil, res, err
	}
	opts := Options{
		PIDBase:   cfg.Obs.PIDBase,
		Workload:  job.Name,
		Hosts:     cfg.Hosts,
		VMs:       cfg.VMsPerHost,
		InputMB:   job.InputPerVM >> 20,
		Seed:      cfg.Seed,
		Pair:      planLabel(plan),
		Journeys:  cfg.Obs.Journeys,
		Decisions: cfg.Obs.Decisions,
	}
	if benchPerf {
		opts.Perf = res.Perf
	}
	rep, err := Build(cfg.Obs.Trace, res.Metrics, smp, opts)
	own.Absorb(cfg.Obs, res.Metrics)
	return rep, res, err
}

// planLabel is a plan's bench pair label: the pair code of a uniform
// plan, otherwise every phase's code joined by '|' (adaptsim's -plan
// syntax).
func planLabel(p core.Plan) string {
	codes := make([]string, len(p.Pairs))
	uniform := true
	for i, pr := range p.Pairs {
		codes[i] = pr.Code()
		uniform = uniform && pr == p.Pairs[0]
	}
	if uniform {
		return codes[0]
	}
	return strings.Join(codes, "|")
}
