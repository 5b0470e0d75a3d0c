package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"adaptmr/internal/check"
	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/iosched"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// Options configures one fleet run.
type Options struct {
	// Parallelism is how many cells simulate concurrently. <= 1 runs the
	// serial fallback; output is byte-identical at every setting because
	// cells exchange no events and observation folds in cell order.
	Parallelism int

	// Obs is the base observation sink. Each cell records into private
	// sinks (trace PID block = PIDBase + cell×1000, run label "cellN")
	// that are absorbed into the base in cell-index order after the run.
	Obs obs.Sink

	// Check attaches the runtime invariant harness to every block queue
	// of every cell (the set is mutex-guarded and shared safely across
	// cell goroutines).
	Check *check.Set

	// Perf collects wall-clock telemetry (Result.WallS, EventsPerSec).
	// Off by default: wall values are machine-dependent and break
	// byte-identity comparisons.
	Perf bool

	// Context, when non-nil, is checked every few thousand events of
	// every cell so a long fleet run can be abandoned.
	Context context.Context

	// OnCell, when non-nil, is called once per cell after its cluster and
	// job tracker are built but before any cell runs. Cells are
	// constructed serially, so the hook needs no locking; anything it
	// attaches (samplers, online controllers) runs inside that cell's
	// engine thereafter and must not be shared across cells.
	OnCell func(cell int, cl *cluster.Cluster)
}

// cellState is one shard: a full cluster with its own engine, the cell's
// jobTracker, and the private observation sinks the fold absorbs.
type cellState struct {
	idx   int
	cl    *cluster.Cluster
	jt    *jobTracker
	epoch sim.Time // engine time when the scenario clock started

	trace     *obs.Tracer
	metrics   *obs.Registry
	journeys  *obs.JourneyLog
	decisions *obs.DecisionLog
}

// run drives the cell's engine until its calendar drains. A cell that
// drains with jobs unfinished has deadlocked.
func (st *cellState) run(ctx context.Context) error {
	if err := core.RunEngine(ctx, st.cl.Eng); err != nil {
		return fmt.Errorf("fleet: run abandoned: %w", err)
	}
	if !st.jt.allDone() {
		return fmt.Errorf("fleet: cell %d stalled with %d/%d jobs finished (model deadlock)",
			st.idx, len(st.jt.finished), st.jt.total)
	}
	return nil
}

// Run executes the scenario to completion and returns the fleet result.
// Deterministic for a fixed scenario: results, traces, metrics, journeys
// and decisions are byte-identical at every Options.Parallelism.
func Run(s Scenario, opt Options) (*Result, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pair, err := iosched.ParsePair(s.Pair)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	insts := s.expand()
	perCell := make([][]*instance, s.Cells)
	for i := range insts {
		inst := &insts[i]
		perCell[inst.cell] = append(perCell[inst.cell], inst)
	}

	base := opt.Obs
	cells := make([]*cellState, s.Cells)
	for c := range cells {
		cc := cluster.DefaultConfig()
		cc.Hosts = s.HostsPerCell
		cc.VMsPerHost = s.VMsPerHost
		cc.Seed = cellSeed(s.Seed, c)
		cc.Check = opt.Check
		st := &cellState{idx: c}
		if base.Enabled() {
			sink := base
			sink.PIDBase = base.PIDBase + int64(c)*1000
			sink.RunLabel = fmt.Sprintf("cell%d", c)
			if base.Trace != nil {
				st.trace = obs.NewTracer()
				sink.Trace = st.trace
			}
			if base.Metrics != nil {
				st.metrics = obs.NewRegistry()
				sink.Metrics = st.metrics
			}
			if base.Journeys != nil {
				st.journeys = obs.NewJourneyLog()
				sink.Journeys = st.journeys
			}
			if base.Decisions != nil {
				st.decisions = obs.NewDecisionLog()
				sink.Decisions = st.decisions
			}
			cc.Obs = sink
		}
		st.cl = cluster.New(cc)
		st.cl.InstallPair(pair)
		// Arrivals are scheduled relative to the post-install engine time;
		// reported times subtract this epoch.
		st.epoch = st.cl.Eng.Now()
		st.jt = newJobTracker(st.cl, s, perCell[c])
		if opt.OnCell != nil {
			opt.OnCell(c, st.cl)
		}
		cells[c] = st
	}

	var wallStart time.Time
	if opt.Perf {
		wallStart = time.Now()
	}
	if err := runCells(cells, opt); err != nil {
		return nil, err
	}
	var wallS float64
	if opt.Perf {
		wallS = time.Since(wallStart).Seconds()
	}

	// Fold the per-cell observation into the base sink, strictly in cell
	// order — the same ordered-fold contract the parallel tuner uses, so
	// serial and sharded runs produce identical bytes.
	for _, st := range cells {
		if base.Trace != nil {
			base.Trace.Absorb(st.trace)
		}
		if base.Metrics != nil {
			base.Metrics.Absorb(st.metrics.Snapshot())
		}
		base.Journeys.Absorb(st.journeys)
		base.Decisions.Absorb(st.decisions)
	}

	res := buildResult(s, cells)
	res.WallS = wallS
	if wallS > 0 {
		res.EventsPerSec = float64(res.SimEvents) / wallS
	}
	return res, nil
}

// runCells runs every cell to completion on up to Parallelism workers.
// Cells exchange no events, so each runs start to finish on its own, and
// the first error in cell order is reported.
func runCells(cells []*cellState, opt Options) error {
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(cells) {
		par = len(cells)
	}
	if par <= 1 {
		for _, st := range cells {
			if err := st.run(opt.Context); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(cells))
	work := make(chan int, len(cells))
	for i := range cells {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = cells[i].run(opt.Context)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
