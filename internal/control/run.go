package control

import (
	"context"

	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/mapred"
	"adaptmr/internal/sim"
)

// Result is one job executed under the online controller: the job's
// result, the controller's Outcome, the switch stall its commands caused
// and the engine's event count.
type Result struct {
	// Job is the executed job's result (phases, volumes, metrics).
	Job mapred.Result `json:"job"`
	Outcome
	// SwitchStall is the total simulated time block queues spent stalled
	// in elevator drains and re-inits caused by the controller's commands.
	SwitchStall sim.Duration `json:"switch_stall_ns"`
	// SimEvents is the engine's event count over the whole run.
	SimEvents uint64 `json:"sim_events"`
}

// AttachCluster attaches a fresh sampler to cl and a controller running
// pol on top of it: the wiring every online run shares, a single job's
// (Run) or a fleet cell's. Call it before traffic starts. Nothing
// finalizes the sampler, so it keeps only the running counters (the zero
// analyze.Sampler) and records no history.
func AttachCluster(cl *cluster.Cluster, pol Policy) (*Controller, *analyze.Sampler) {
	smp := new(analyze.Sampler)
	smp.AttachCluster(cl)
	c := New(pol)
	c.Attach(cl, smp)
	return c, smp
}

// Run is the one online run, behind adaptmr.RunOnline and adaptd's
// /v1/autotune: it executes job (core.Execute) under ctx on a fresh
// cluster built from cfg, booted with pol's start pair (zero fields
// defaulted) and driven by a controller running pol (AttachCluster).
// The run records into private instruments labelled with the boot plan,
// and a completed run folds them into cfg's tracer, registry and logs,
// exactly as a core.Runner folds an evaluation. wire, when non-nil,
// extends the cluster after the controller attached and is handed the
// sampler and the controller; it runs before the job starts. perf
// collects engine self-telemetry onto the returned core.RunResult.
// Invariant checks attached through cfg.Check are the caller's to audit.
func Run(ctx context.Context, cfg cluster.Config, job mapred.Config, pol Policy, perf bool,
	wire func(*cluster.Cluster, *analyze.Sampler, *Controller)) (Result, core.RunResult, error) {
	plan := core.Uniform(core.TwoPhases, pol.withDefaults().StartPair)
	own := cfg.Obs
	if own.Enabled() { // only an observed run needs the label, which allocates
		cfg.Obs = own.Private(0, plan.String())
	}
	var ctrl *Controller
	var eng *sim.Engine
	res, err := core.Execute(ctx, cfg, job, plan, perf, func(cl *cluster.Cluster) {
		c, smp := AttachCluster(cl, pol)
		if wire != nil {
			wire(cl, smp, c)
		}
		ctrl, eng = c, cl.Eng
	})
	if err != nil {
		return Result{}, res, err
	}
	own.Absorb(cfg.Obs, res.Metrics)
	return Result{
		Job:         res.Job,
		Outcome:     ctrl.Outcome(),
		SwitchStall: res.SwitchStall,
		SimEvents:   eng.EventsFired(),
	}, res, nil
}
