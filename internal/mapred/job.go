package mapred

import (
	"fmt"

	"adaptmr/internal/cluster"
	"adaptmr/internal/obs"
	"adaptmr/internal/obs/perfstat"
	"adaptmr/internal/sim"
)

// Phase identifies the paper's coarse job phases.
type Phase int

const (
	// PhaseMap runs from job start until all map tasks complete (CPU +
	// disk + network intensive).
	PhaseMap Phase = iota
	// PhaseShuffle runs from all-maps-done until the last reducer finishes
	// fetching (disk + network intensive).
	PhaseShuffle
	// PhaseReduce covers the final sort/merge, reduce function, and HDFS
	// output (CPU + disk intensive).
	PhaseReduce
)

func (p Phase) String() string {
	switch p {
	case PhaseMap:
		return "Ph1-map"
	case PhaseShuffle:
		return "Ph2-shuffle"
	case PhaseReduce:
		return "Ph3-reduce"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// ProgressPoint is a timestamped completion fraction sample.
type ProgressPoint struct {
	Fraction float64
	At       sim.Time
}

// Result summarises a finished job.
type Result struct {
	Name     string
	Start    sim.Time
	Done     sim.Time
	Duration sim.Duration

	MapsDoneAt    sim.Time
	ShuffleDoneAt sim.Time

	NumMaps    int
	NumReduces int
	Waves      float64 // map waves = blocks / (VMs × map slots)

	// FirstMapDoneAt is when the first map output became fetchable (the
	// earliest the shuffle could start).
	FirstMapDoneAt sim.Time

	// NonConcurrentShufflePct is Table II's metric: the part of the
	// shuffle window that ran after the last map finished, as a
	// percentage of the whole shuffle window (first map output available
	// → last reducer fetched).
	NonConcurrentShufflePct float64

	Progress []ProgressPoint

	// Metrics is a snapshot of the cluster's metrics registry taken when
	// the result was built (nil when the cluster ran without one).
	Metrics *obs.Snapshot

	// Perf, when non-nil, carries engine self-telemetry for the run that
	// produced this result (wall clock, events/sec, allocs/event). It is
	// populated only when the caller opted in (core.Runner.CollectPerf,
	// WithPerfStats). Wall times are
	// machine-dependent, so it is never byte-deterministic.
	Perf *perfstat.Stat `json:"perf,omitempty"`

	// Journeys, when non-nil, summarises the run's per-request latency
	// decompositions (populated by the runner when a journey log was
	// attached).
	Journeys *obs.JourneySummary `json:"journeys,omitempty"`

	// Decisions, when non-nil, summarises scheduler decision tallies per
	// queue level (populated when a decision log was attached).
	Decisions *obs.DecisionSummary `json:"decisions,omitempty"`
}

// PhaseDuration returns the wall time spent in phase p.
func (r Result) PhaseDuration(p Phase) sim.Duration {
	switch p {
	case PhaseMap:
		return r.MapsDoneAt.Sub(r.Start)
	case PhaseShuffle:
		return r.ShuffleDoneAt.Sub(r.MapsDoneAt)
	case PhaseReduce:
		return r.Done.Sub(r.ShuffleDoneAt)
	}
	return 0
}

// SlotGate arbitrates task slots across jobs sharing one cluster. Without
// a gate every job believes it owns Config.MapSlots/ReduceSlots per VM —
// correct for the single-job runs the paper measures, nonsense once a
// JobTracker admits several jobs onto the same tasktrackers. A gate owns
// the cluster-wide per-VM slot capacity instead: Acquire is consulted
// before each task launch (granting or refusing synchronously), Release is
// told when a slot frees so the gate can pick — by scheduling policy —
// which job's backlog on that VM gets it (via Job.PumpMaps/PumpReduces).
//
// All methods run inside simulation event callbacks on the engine
// goroutine; implementations need no locking but must not re-enter the
// engine.
type SlotGate interface {
	// AcquireMap asks for a map slot on vm; true grants it.
	AcquireMap(j *Job, vm int) bool
	// AcquireReduce asks for a reduce slot on vm; true grants it.
	AcquireReduce(j *Job, vm int) bool
	// ReleaseMap returns a map slot on vm previously granted to j.
	ReleaseMap(j *Job, vm int)
	// ReleaseReduce returns a reduce slot on vm previously granted to j.
	ReleaseReduce(j *Job, vm int)
}

// Job is one executing MapReduce job.
type Job struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	cfg  Config
	gate SlotGate

	tts     []*taskTracker
	maps    []*mapTask
	reduces []*reduceTask

	started  bool
	start    sim.Time
	mapsDone int
	shuffled int
	finished int

	tFirstMap    sim.Time
	tMapsDone    sim.Time
	tShuffleDone sim.Time
	tDone        sim.Time
	done         bool

	onDone        func(*Job)
	onMapsDone    []func()
	onShuffleDone []func()

	credits      int
	totalCredits int
	progress     []ProgressPoint

	// ioMarkR/ioMarkW checkpoint the cluster-wide Dom0 byte counters at
	// the last phase boundary, so per-phase I/O volumes can be attributed.
	ioMarkR, ioMarkW int64

	// metricsSnap memoises the completion-time metrics snapshot so
	// repeated Result() calls return the same *obs.Snapshot instead of
	// re-snapshotting the cluster registry — which would both pick up
	// unrelated later activity and invite counter double-counting when
	// each copy is absorbed into an aggregate.
	metricsSnap *obs.Snapshot
}

// NewJob lays out a job on the cluster: places the HDFS input, creates one
// data-local map task per block and the configured reduce tasks.
func NewJob(cl *cluster.Cluster, cfg Config) *Job {
	cfg.validate()
	j := &Job{eng: cl.Eng, cl: cl, cfg: cfg}
	nvm := cl.NumVMs()
	for vm := 0; vm < nvm; vm++ {
		j.tts = append(j.tts, newTaskTracker(j, vm))
	}
	// Data-local input placement: each VM maps its own blocks.
	for vm := 0; vm < nvm; vm++ {
		blocks := cl.DFS.PlaceInput(vm, cfg.InputPerVM)
		for _, b := range blocks {
			m := newMapTask(j, j.tts[vm], len(j.maps), b)
			j.maps = append(j.maps, m)
			j.tts[vm].mapQueue = append(j.tts[vm].mapQueue, m)
		}
	}
	nred := cfg.ReducersPerVM * nvm
	for r := 0; r < nred; r++ {
		// Round-robin reducer placement over tasktrackers.
		rt := newReduceTask(j, j.tts[r%nvm], r)
		j.reduces = append(j.reduces, rt)
		j.tts[r%nvm].reduceQueue = append(j.tts[r%nvm].reduceQueue, rt)
	}
	j.totalCredits = len(j.maps) + len(j.reduces)
	return j
}

// SetSlotGate installs the cross-job slot arbiter. It must be called
// before Start; nil (the default) keeps the historical per-job slot
// accounting, byte-identical to every existing single-job run.
func (j *Job) SetSlotGate(g SlotGate) {
	if j.started {
		panic("mapred: SetSlotGate after Start")
	}
	j.gate = g
}

// PumpMaps offers VM vm's map backlog a chance to launch tasks; the
// installed SlotGate is consulted for each launch. Gates call this when a
// freed or newly available slot should go to this job.
func (j *Job) PumpMaps(vm int) { j.tts[vm].pumpMaps() }

// PumpReduces is PumpMaps for the reduce backlog.
func (j *Job) PumpReduces(vm int) { j.tts[vm].pumpReduces() }

// MapBacklog returns the number of map tasks queued (not yet launched) on
// VM vm.
func (j *Job) MapBacklog(vm int) int { return len(j.tts[vm].mapQueue) }

// ReduceBacklog returns the number of reduce tasks queued on VM vm.
func (j *Job) ReduceBacklog(vm int) int { return len(j.tts[vm].reduceQueue) }

// NumMaps returns the number of map tasks.
func (j *Job) NumMaps() int { return len(j.maps) }

// NumReduces returns the number of reduce tasks.
func (j *Job) NumReduces() int { return len(j.reduces) }

// OnMapsDone registers a callback fired the moment the last map finishes
// (the paper's Ph1→Ph2 switch point).
func (j *Job) OnMapsDone(fn func()) { j.onMapsDone = append(j.onMapsDone, fn) }

// OnShuffleDone registers a callback fired when the last reducer finishes
// fetching (the paper's Ph2→Ph3 switch point).
func (j *Job) OnShuffleDone(fn func()) { j.onShuffleDone = append(j.onShuffleDone, fn) }

// Start launches the job; onDone fires at completion.
func (j *Job) Start(onDone func(*Job)) {
	if j.started {
		panic("mapred: job already started")
	}
	j.started = true
	j.onDone = onDone
	j.start = j.eng.Now()
	j.ioMarkR, j.ioMarkW = j.dom0IO()
	for _, tt := range j.tts {
		tt.launch()
	}
}

// dom0IO sums the Dom0-level byte counters across all hosts.
func (j *Job) dom0IO() (read, write int64) {
	for _, h := range j.cl.Hosts {
		st := h.Dom0Queue().Stats()
		read += st.ReadBytes
		write += st.WriteBytes
	}
	return read, write
}

// closePhase records a finished phase: a trace span on the job thread and
// the per-phase Dom0 I/O volume gauges.
func (j *Job) closePhase(p Phase, start, end sim.Time) {
	s := j.cl.Obs()
	if !s.Enabled() {
		return
	}
	r, w := j.dom0IO()
	dr, dw := r-j.ioMarkR, w-j.ioMarkW
	j.ioMarkR, j.ioMarkW = r, w
	if m := s.Metrics; m != nil {
		// Volumes are totals: they fold additively when per-evaluation
		// snapshots are aggregated (and when several jobs run on one
		// cluster registry back to back).
		name := map[Phase]string{PhaseMap: "map", PhaseShuffle: "shuffle", PhaseReduce: "reduce"}[p]
		m.GaugeWith("phase."+name+".read_bytes", obs.MergeSum).Add(float64(dr))
		m.GaugeWith("phase."+name+".written_bytes", obs.MergeSum).Add(float64(dw))
	}
	if tr := s.Trace; tr != nil {
		tr.Span(s.ClusterPID(), obs.TIDJob, "mapred", p.String(), start, end,
			obs.I("read_bytes", dr), obs.I("written_bytes", dw))
	}
}

// Done reports whether the job has completed.
func (j *Job) Done() bool { return j.done }

// Result returns the job summary; it panics if the job has not finished.
func (j *Job) Result() Result {
	if !j.done {
		panic("mapred: Result before completion")
	}
	dur := j.tDone.Sub(j.start)
	res := Result{
		Name:           j.cfg.Name,
		Start:          j.start,
		Done:           j.tDone,
		Duration:       dur,
		FirstMapDoneAt: j.tFirstMap,
		MapsDoneAt:     j.tMapsDone,
		ShuffleDoneAt:  j.tShuffleDone,
		NumMaps:        len(j.maps),
		NumReduces:     len(j.reduces),
		Waves:          float64(len(j.maps)) / float64(len(j.tts)*j.cfg.MapSlots),
		Progress:       j.progress,
	}
	if window := j.tShuffleDone.Sub(j.tFirstMap); window > 0 {
		res.NonConcurrentShufflePct = 100 * float64(j.tShuffleDone.Sub(j.tMapsDone)) / float64(window)
	}
	if j.metricsSnap == nil {
		j.metricsSnap = j.cl.Obs().Metrics.Snapshot()
	}
	res.Metrics = j.metricsSnap
	return res
}

// credit advances the progress meter by one completed task.
func (j *Job) credit() {
	j.credits++
	j.progress = append(j.progress, ProgressPoint{
		Fraction: float64(j.credits) / float64(j.totalCredits),
		At:       j.eng.Now(),
	})
}

// mapFinished is called by a map task on completion.
func (j *Job) mapFinished(m *mapTask) {
	if j.mapsDone == 0 {
		j.tFirstMap = j.eng.Now()
	}
	j.mapsDone++
	j.credit()
	// Publish the map output to every reducer.
	for _, r := range j.reduces {
		r.mapOutputAvailable(m)
	}
	if j.mapsDone == len(j.maps) {
		j.tMapsDone = j.eng.Now()
		j.closePhase(PhaseMap, j.start, j.tMapsDone)
		for _, fn := range j.onMapsDone {
			fn()
		}
	}
	m.tt.mapSlotFreed()
}

// reducerShuffled is called by a reducer when its fetch set completes.
func (j *Job) reducerShuffled(*reduceTask) {
	j.shuffled++
	if j.shuffled == len(j.reduces) {
		j.tShuffleDone = j.eng.Now()
		j.closePhase(PhaseShuffle, j.tMapsDone, j.tShuffleDone)
		for _, fn := range j.onShuffleDone {
			fn()
		}
	}
}

// reducerFinished is called by a reducer when its output is committed.
func (j *Job) reducerFinished(r *reduceTask) {
	j.finished++
	j.credit()
	r.tt.reduceSlotFreed()
	if j.finished == len(j.reduces) {
		j.tDone = j.eng.Now()
		j.done = true
		j.closePhase(PhaseReduce, j.tShuffleDone, j.tDone)
		s := j.cl.Obs()
		if m := s.Metrics; m != nil {
			m.Counter("mapred.maps").Add(int64(len(j.maps)))
			m.Counter("mapred.reduces").Add(int64(len(j.reduces)))
			m.Gauge("mapred.duration_s").Set(j.tDone.Sub(j.start).Seconds())
		}
		if tr := s.Trace; tr != nil {
			tr.AsyncSpan(s.ClusterPID(), obs.TIDJob, "mapred", "job:"+j.cfg.Name,
				j.start, j.tDone,
				obs.I("maps", int64(len(j.maps))),
				obs.I("reduces", int64(len(j.reduces))))
		}
		if j.onDone != nil {
			j.onDone(j)
		}
	}
}

// Run executes a job to completion on a fresh cluster and returns its
// result. It is the standard entry point for experiments.
func Run(cl *cluster.Cluster, cfg Config) Result {
	j := NewJob(cl, cfg)
	j.Start(nil)
	cl.Eng.Run()
	if !j.done {
		panic("mapred: simulation drained before job completion (deadlock in model)")
	}
	return j.Result()
}
