package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adaptmr/internal/block"
	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/obs"
	"adaptmr/internal/obs/perfstat"
	"adaptmr/internal/sim"
)

// Runner executes MapReduce jobs under phase plans on fresh, deterministic
// clusters. Every evaluation is a full simulated execution — exactly how
// the paper's heuristic measures Hadoop_time — and results are memoised by
// plan, since identical plans on identical clusters are reproducible.
//
// Independent evaluations are embarrassingly parallel (each runs on its
// own freshly built cluster and simulation engine), so RunAll fans a batch
// of plans out across a worker pool while keeping every observable output
// byte-identical to a serial run:
//
//   - the memo cache is single-flight per plan key, so duplicate plans
//     simulate exactly once regardless of worker interleaving;
//   - evaluation indices (which drive Evaluations, trace PID bases and
//     run labels) are allocated in submission order, which equals serial
//     execution order;
//   - each evaluation records into its own obs.Sink.Private sinks, and the
//     pool folds them into the caller's shared sinks strictly in index
//     order (obs.Tracer.Absorb renumbers async ids), so the merged trace,
//     metrics and report bytes match a 1-worker run.
type Runner struct {
	// ClusterConfig builds each evaluation's testbed. Its Pool, when
	// set, goes to one evaluation at a time.
	ClusterConfig cluster.Config
	// Job is the workload under tuning.
	Job mapred.Config

	// Parallelism is the evaluation worker count for batched calls
	// (RunAll, ProfilePairs, BruteForce). <= 0 means runtime.GOMAXPROCS.
	Parallelism int

	// Context, when non-nil, bounds every evaluation: cancellation or
	// deadline expiry is checked before each evaluation starts and
	// periodically inside the event loop (every few thousand events), so
	// a served tuning request can be abandoned mid-simulation. A
	// cancelled evaluation reports the context's error; because failed
	// evaluations are memoised like successful ones, a Runner whose
	// Context has fired should be discarded, not reused. Nil means
	// context.Background() and keeps the historical zero-overhead event
	// loop.
	Context context.Context

	// CollectPerf, when set, wraps every evaluation's event loop in a
	// perfstat probe: wall clock, events processed, allocation and GC
	// deltas land on RunResult.Perf and (when a metrics registry is
	// attached) as perf.* gauges in the evaluation's private registry.
	// Off by default — the probe's two ReadMemStats calls briefly
	// stop-the-world, and perf numbers are machine-dependent, so
	// byte-determinism tests leave it disabled.
	CollectPerf bool

	// OnEvaluation, when non-nil, is called for each actual (non-memoised)
	// evaluation after the cluster is built and the plan's first pair
	// installed, but before the job starts. It runs on the evaluating
	// worker's goroutine; callers use it to attach samplers or pump
	// events for live streaming. It must not retain the cluster past the
	// evaluation.
	OnEvaluation func(plan Plan, cl *cluster.Cluster)

	// Evaluations counts actual (non-memoised) job executions. It is
	// mutated under the runner's lock while a batch is in flight and is
	// safe to read once the triggering call returns.
	Evaluations int

	mu       sync.Mutex
	memo     map[string]*evalEntry // single-flight, keyed by Plan.Key()
	pending  map[int]*evalEntry    // finished evaluations awaiting fold
	foldNext int                   // next evaluation index to fold

	// pool hands ClusterConfig.Pool to one evaluation at a time, since a
	// request pool is single-threaded; the others build fresh pools. Only
	// an evaluation that completed gives it back.
	pool chan *block.Pool
}

// evalEntry is one single-flight evaluation slot. Whoever creates the
// entry owns its execution; everyone else waits on done.
type evalEntry struct {
	plan Plan // first plan submitted under this key (labels the run)
	idx  int  // evaluation index (submission order)
	done chan struct{}
	res  RunResult
	err  error
	obs  obs.Sink // private sinks awaiting their ordered fold
}

// NewRunner creates a runner for the job on the given testbed.
func NewRunner(cc cluster.Config, job mapred.Config) *Runner {
	return &Runner{
		ClusterConfig: cc,
		Job:           job,
		memo:          make(map[string]*evalEntry),
		pending:       make(map[int]*evalEntry),
	}
}

// Run executes the job under the plan (memoised). It is RunAll of a
// single-plan batch.
func (r *Runner) Run(plan Plan) (RunResult, error) {
	out, err := r.RunAll([]Plan{plan})
	if err != nil {
		return RunResult{}, err
	}
	return out[0], nil
}

// RunAll evaluates every plan, fanning non-memoised evaluations across the
// worker pool, and returns results in submission order. Duplicate plans
// (and plans equivalent under Plan.Key) simulate once. The first error in
// submission order is returned; successfully evaluated plans still fold
// their observations.
func (r *Runner) RunAll(plans []Plan) ([]RunResult, error) {
	entries := make([]*evalEntry, len(plans))
	var toRun []*evalEntry

	r.mu.Lock()
	if r.memo == nil {
		r.memo = make(map[string]*evalEntry)
	}
	if r.pending == nil {
		r.pending = make(map[int]*evalEntry)
	}
	if r.pool == nil {
		r.pool = make(chan *block.Pool, 1)
		if r.ClusterConfig.Pool != nil {
			r.pool <- r.ClusterConfig.Pool
		}
	}
	ctx := r.Context
	for i, plan := range plans {
		key := plan.Key()
		if e, ok := r.memo[key]; ok {
			entries[i] = e
			continue
		}
		e := &evalEntry{plan: plan, idx: r.Evaluations, done: make(chan struct{})}
		r.Evaluations++
		r.memo[key] = e
		entries[i] = e
		toRun = append(toRun, e)
	}
	r.mu.Unlock()

	Fan(r.Parallelism, len(toRun), func(i int) { r.execute(ctx, toRun[i]) })

	out := make([]RunResult, len(plans))
	var firstErr error
	for i, e := range entries {
		<-e.done
		if e.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: plan %s: %w", plans[i], e.err)
		}
		out[i] = e.res
	}
	return out, firstErr
}

// execute runs one evaluation in its private sinks (trace PID block and
// run label chosen by its submission-order index) and hands it to the
// ordered fold. Folding drains pending entries strictly in
// evaluation-index order, so shared tracer/metrics sinks absorb
// observations exactly as a serial run would have produced them. A
// cancelled evaluation still folds (with its error set), so later indices
// are never stranded behind it.
func (r *Runner) execute(ctx context.Context, e *evalEntry) {
	cc := r.ClusterConfig
	if cc.Obs.Enabled() { // only an observed run needs the label, which allocates
		cc.Obs = cc.Obs.Private(e.idx, e.plan.String())
	}
	cc.Pool = nil
	select {
	case cc.Pool = <-r.pool:
	default:
	}
	var wire func(*cluster.Cluster)
	if r.OnEvaluation != nil {
		wire = func(cl *cluster.Cluster) { r.OnEvaluation(e.plan, cl) }
	}
	res, err := Execute(ctx, cc, r.Job, e.plan, r.CollectPerf, wire)
	if cc.Pool != nil && err == nil {
		r.pool <- cc.Pool
	}

	r.mu.Lock()
	e.res, e.obs, e.err = res, cc.Obs, err
	r.pending[e.idx] = e
	for {
		f, ok := r.pending[r.foldNext]
		if !ok {
			break
		}
		delete(r.pending, r.foldNext)
		r.foldNext++
		r.fold(f)
	}
	r.mu.Unlock()
}

// fold absorbs one finished evaluation into the shared sinks (in index
// order — the caller guarantees it) and releases its waiters. Called with
// r.mu held.
func (r *Runner) fold(f *evalEntry) {
	if f.err == nil {
		r.ClusterConfig.Obs.Absorb(f.obs, f.res.Metrics)
	}
	f.obs = obs.Sink{}
	close(f.done)
}

// RunEngine drives eng until its calendar drains, checking ctx roughly
// every ctxCheckEvents events. It returns the context's error if the run
// was abandoned, nil when the calendar drained. A nil or background
// context takes the unchecked fast path (eng.Run), which is the byte-
// and cost-identical historical loop.
func RunEngine(ctx context.Context, eng *sim.Engine) error {
	if ctx == nil || ctx.Done() == nil {
		eng.Run()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for {
		for i := 0; i < ctxCheckEvents; i++ {
			if !eng.Step() {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// ctxCheckEvents is how many simulation events run between context
// checks: small enough that a deadline interrupts within microseconds of
// wall time, large enough that the check never shows up in profiles.
const ctxCheckEvents = 4096

// Execute runs one job under the plan on a fresh cluster built from cc:
// it installs the plan's first pair, wires the switch commands to the
// job's phase boundaries, calls wire (when non-nil) with the cluster
// before the job starts, and drives the engine under ctx (see RunEngine).
// perf wraps the event loop in a perfstat probe. The run records into
// cc.Obs as it goes; it is the one single-job executor every entry point
// shares.
func Execute(ctx context.Context, cc cluster.Config, job mapred.Config, plan Plan,
	perf bool, wire func(*cluster.Cluster)) (RunResult, error) {
	cl := cluster.New(cc)
	// Phase 1's pair is installed before the job starts (clean boot
	// install, no cost).
	cl.InstallPair(plan.Pairs[0])
	baseStall := totalStall(cl)

	j := mapred.NewJob(cl, job)

	// Wire the switch commands to the runtime's phase boundary events; a
	// repeated pair means "no switch command" (the paper's 0 entry).
	rt := plan.RuntimePairs()
	if rt[1] != rt[0] {
		j.OnMapsDone(func() { cl.SetPairAll(rt[1], nil) })
	}
	if rt[2] != rt[1] {
		j.OnShuffleDone(func() { cl.SetPairAll(rt[2], nil) })
	}

	if wire != nil {
		wire(cl)
	}

	j.Start(nil)
	probe := perfstat.Start(perf, cl.Eng)
	if err := RunEngine(ctx, cl.Eng); err != nil {
		return RunResult{Plan: plan}, fmt.Errorf("job %q abandoned: %w", job.Name, err)
	}
	stat := probe.Stop()
	if !j.Done() {
		return RunResult{Plan: plan}, fmt.Errorf("job %q did not complete (simulation drained early)", job.Name)
	}
	// Publish before Result() memoises its metrics snapshot, so the run's
	// perf gauges travel with the snapshot.
	perfstat.Publish(cc.Obs.Metrics, stat)
	res := j.Result()
	res.Perf = stat
	res.Journeys = cc.Obs.Journeys.Summary()
	res.Decisions = cc.Obs.Decisions.Summary()
	return RunResult{
		Plan: plan, Duration: res.Duration, Job: res, SwitchStall: totalStall(cl) - baseStall,
		Metrics: res.Metrics, Perf: stat,
		Journeys: res.Journeys, Decisions: res.Decisions,
	}, nil
}

// Fan runs f(i) for every i in [0, n) on up to par goroutines (par <= 0
// means GOMAXPROCS), handing the indices out in ascending order; with one
// worker it loops on the caller's goroutine. It is the fan-out every
// batch of independent simulations shares: each f(i) must touch only
// index i's state, or guard what it shares.
func Fan(par, n int, f func(i int)) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// totalStall sums switch stall time across every queue in the cluster.
func totalStall(cl *cluster.Cluster) sim.Duration {
	var stall sim.Duration
	for _, h := range cl.Hosts {
		stall += h.Dom0Queue().Stats().SwitchStall
		for _, d := range h.Domains() {
			stall += d.Queue().Stats().SwitchStall
		}
	}
	return stall
}

// ProfilePairs runs the job once per pair with no switching and returns
// per-phase durations — the profiling stage of the meta-scheduler and the
// data behind Fig 6 and Fig 8. The profiling runs are independent, so they
// execute on the worker pool.
func (r *Runner) ProfilePairs(pairs []iosched.Pair) ([]Profile, error) {
	plans := make([]Plan, len(pairs))
	for i, p := range pairs {
		plans[i] = Uniform(ThreePhases, p)
	}
	results, err := r.RunAll(plans)
	if err != nil {
		return nil, err
	}
	out := make([]Profile, 0, len(pairs))
	for i, p := range pairs {
		res := results[i]
		out = append(out, Profile{
			Pair:  p,
			Total: res.Duration,
			ByPhase: [3]sim.Duration{
				res.Job.PhaseDuration(mapred.PhaseMap),
				res.Job.PhaseDuration(mapred.PhaseShuffle),
				res.Job.PhaseDuration(mapred.PhaseReduce),
			},
			Result: res.Job,
		})
	}
	return out, nil
}

// BestSingle returns the profile with the lowest total time.
func BestSingle(profiles []Profile) Profile {
	best := profiles[0]
	for _, p := range profiles[1:] {
		if p.Total < best.Total {
			best = p
		}
	}
	return best
}

// ProfileFor returns the profile of a specific pair.
func ProfileFor(profiles []Profile, pair iosched.Pair) (Profile, bool) {
	for _, p := range profiles {
		if p.Pair == pair {
			return p, true
		}
	}
	return Profile{}, false
}
