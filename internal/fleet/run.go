package fleet

import (
	"context"
	"fmt"
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
	// Parallelism is how many cells simulate concurrently (<= 0 means
	// GOMAXPROCS, 1 runs serially); output is byte-identical at every
	// setting because cells exchange no events and observation folds in
	// cell order.
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

// cellState is one shard: a full cluster with its own engine (recording
// into the private sinks the fold absorbs) and the cell's jobTracker.
type cellState struct {
	idx   int
	cl    *cluster.Cluster
	jt    *jobTracker
	epoch sim.Time // engine time when the scenario clock started
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
		cc.Obs = base.Private(c, fmt.Sprintf("cell%d", c))
		st := &cellState{idx: c, cl: cluster.New(cc)}
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
	// Cells exchange no events, so each runs start to finish on its own;
	// the first error in cell order is reported.
	errs := make([]error, len(cells))
	core.Fan(opt.Parallelism, len(cells), func(i int) { errs[i] = cells[i].run(opt.Context) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var wallS float64
	if opt.Perf {
		wallS = time.Since(wallStart).Seconds()
	}

	// Fold the per-cell observation into the base sink, strictly in cell
	// order — the same ordered-fold contract the parallel tuner uses, so
	// serial and sharded runs produce identical bytes.
	for _, st := range cells {
		priv := st.cl.Obs()
		base.Absorb(priv, priv.Metrics.Snapshot())
	}

	res := buildResult(s, cells)
	res.WallS = wallS
	if wallS > 0 {
		res.EventsPerSec = float64(res.SimEvents) / wallS
	}
	return res, nil
}
