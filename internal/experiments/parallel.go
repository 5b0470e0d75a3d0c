package experiments

import "adaptmr/internal/core"

// parDo runs f(i) for every i in [0, n) on core.Fan with
// Config.Parallelism workers. Every cell must be independent (its own
// cluster / host / engine) and write only to its own index in pre-sized
// result slices, which keeps the assembled output identical to a serial
// loop regardless of worker interleaving.
//
// When the base cluster config carries observation sinks the sweep runs
// serially: direct (non-Runner) experiment runs record into the shared
// tracer/metrics registry as they execute, and only a serial loop keeps
// that record independent of the worker count. The Runner-based
// experiments (Fig 6/7/8) are exempt from this rule — the evaluation pool
// folds observations in submission order by itself — so they pass
// parallelism straight to core.Runner instead.
func parDo(cfg Config, n int, f func(i int)) {
	par := cfg.Parallelism
	if cfg.Cluster.Obs.Enabled() || cfg.Cluster.Host.Obs.Enabled() {
		par = 1
	}
	core.Fan(par, n, f)
}

// firstErr returns the first non-nil error of a per-cell error slice.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
