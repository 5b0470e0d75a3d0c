package fleet

import (
	"context"
	"fmt"
	"sort"
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
	// cell goroutines). Each cell that finishes its jobs has its checkers
	// audited and dropped (check.Set.Retire), so a checked fleet holds
	// only the cells in flight; the caller's Finalize audits the rest.
	Check *check.Set

	// Perf collects wall-clock telemetry (Result.WallS, EventsPerSec),
	// timed over building and running every cell. Off by default: wall
	// values are machine-dependent and break byte-identity comparisons.
	Perf bool

	// Context, when non-nil, is checked every few thousand events of
	// every cell so a long fleet run can be abandoned.
	Context context.Context

	// OnCell, when non-nil, is called once per cell after its cluster and
	// job tracker are built, right before the cell runs. It runs on the
	// cell's worker, so calls for different cells may overlap and must
	// guard anything they share; anything it attaches (samplers, online
	// controllers) runs inside that cell's engine thereafter and must not
	// be shared across cells.
	OnCell func(cell int, cl *cluster.Cluster)
}

// cell is what a finished cell leaves for buildResult and the fold. Its
// cluster, job tracker and mapred.Jobs are gone by then, so a fleet holds
// at most Parallelism clusters at a time.
type cell struct {
	idx    int
	epoch  sim.Time      // engine time when the scenario clock started
	vms    int           // VMs in the cell's cluster
	jobs   []*runningJob // finished jobs in admission order, job dropped
	peak   int           // most jobs admitted at once
	events uint64        // events the cell's engine fired
	obs    obs.Sink      // the private sink the fold absorbs
}

// runCell builds cell c — its cluster, boot pair, epoch, job tracker and
// OnCell — drives its engine until the calendar drains and keeps only
// what the result and the fold read. A cell that drains with jobs
// unfinished has deadlocked.
//
// The cell takes its request pool from shelf and puts it back once every
// job has finished. A pool holds only freed requests and never changes
// simulated results, so which cell takes which pool does not matter.
func runCell(s Scenario, opt Options, pair iosched.Pair, c int, insts []*instance, shelf cluster.PoolShelf) (cell, error) {
	cc := cluster.DefaultConfig()
	cc.Hosts = s.HostsPerCell
	cc.VMsPerHost = s.VMsPerHost
	cc.Seed = cellSeed(s.Seed, c)
	cc.Check = opt.Check
	cc.Pool = shelf.Take()
	cc.Obs = opt.Obs.Private(c, fmt.Sprintf("cell%d", c))
	cl := cluster.New(cc)
	cl.InstallPair(pair)
	// Arrivals are scheduled relative to the post-install engine time;
	// reported times subtract this epoch.
	epoch := cl.Eng.Now()
	jt := newJobTracker(cl, s, insts)
	if opt.OnCell != nil {
		opt.OnCell(c, cl)
	}
	if err := core.RunEngine(opt.Context, cl.Eng); err != nil {
		return cell{}, fmt.Errorf("fleet: run abandoned: %w", err)
	}
	if !jt.allDone() {
		return cell{}, fmt.Errorf("fleet: cell %d stalled with %d/%d jobs finished (model deadlock)",
			c, len(jt.finished), jt.total)
	}
	if opt.Check != nil {
		// The cell drained: audit its checkers now, so the set does not
		// keep the finished cell alive until the fleet's Finalize.
		opt.Check.Retire(cl.Eng)
	}
	shelf.Put(cc.Pool) // every request is back in the pool
	jobs := jt.finished
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	for _, rj := range jobs {
		rj.job = nil // the job's tasks reach back into the cluster
	}
	return cell{
		idx: c, epoch: epoch, vms: cl.NumVMs(), jobs: jobs,
		peak: jt.peakConcurrent, events: cl.Eng.EventsFired(), obs: cl.Obs(),
	}, nil
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

	var wallStart time.Time
	if opt.Perf {
		wallStart = time.Now()
	}
	// Cells exchange no events, so each is built, run and released on its
	// own worker; the first error in cell order is reported. A drained
	// cell's request pool goes to the next cell built, so the fleet grows
	// at most Parallelism pools.
	cells := make([]cell, s.Cells)
	errs := make([]error, s.Cells)
	shelf := cluster.NewPoolShelf(s.Cells) // a slot per cell: no pool is dropped
	core.Fan(opt.Parallelism, s.Cells, func(c int) {
		cells[c], errs[c] = runCell(s, opt, pair, c, perCell[c], shelf)
	})
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
	for _, c := range cells {
		opt.Obs.Absorb(c.obs, c.obs.Metrics.Snapshot())
	}

	res := buildResult(s, cells)
	res.WallS = wallS
	if wallS > 0 {
		res.EventsPerSec = float64(res.SimEvents) / wallS
	}
	return res, nil
}
