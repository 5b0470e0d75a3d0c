package fleet

import (
	"sort"

	"adaptmr/internal/sim"
)

// JobOutcome summarises one job instance's fleet-level lifecycle: when
// it arrived, how long admission held it, how it ran, and how much of
// its runtime overlapped other jobs in its cell. All times are scenario
// time (t=0 is the fleet clock start), in milliseconds.
type JobOutcome struct {
	ID        string  `json:"id"`
	Benchmark string  `json:"benchmark"`
	Class     string  `json:"class"`
	Cell      int     `json:"cell"`
	Queue     string  `json:"queue,omitempty"`
	Priority  int     `json:"priority,omitempty"`
	Weight    float64 `json:"weight"`

	ArriveMS   int64 `json:"arrive_ms"`
	AdmitMS    int64 `json:"admit_ms"`
	DoneMS     int64 `json:"done_ms"`
	WaitMS     int64 `json:"wait_ms"`     // admission queueing (admit - arrive)
	DurationMS int64 `json:"duration_ms"` // admit → done

	MapS     float64 `json:"map_s"`
	ShuffleS float64 `json:"shuffle_s"`
	ReduceS  float64 `json:"reduce_s"`

	Maps    int `json:"maps"`
	Reduces int `json:"reduces"`

	// OverlapPct is the percentage of this job's runtime during which at
	// least one other job was running in the same cell — the degree of
	// multi-tenant phase overlap the single-job paper setting excludes.
	OverlapPct float64 `json:"overlap_pct"`
}

// Aggregate is the fleet-wide summary.
type Aggregate struct {
	Jobs                  int     `json:"jobs"`
	MakespanS             float64 `json:"makespan_s"` // fleet clock start → last completion
	ThroughputJobsPerHour float64 `json:"throughput_jobs_per_hour"`

	MeanDurationS float64 `json:"mean_duration_s"`
	P50DurationS  float64 `json:"p50_duration_s"`
	P95DurationS  float64 `json:"p95_duration_s"`
	MeanWaitS     float64 `json:"mean_wait_s"`
	MaxWaitS      float64 `json:"max_wait_s"`

	// PeakConcurrency is the largest number of jobs simultaneously
	// admitted in any one cell; MeanOverlapPct averages JobOutcome
	// overlap over all jobs.
	PeakConcurrency int     `json:"peak_concurrency"`
	MeanOverlapPct  float64 `json:"mean_overlap_pct"`

	// ByClass counts jobs per disk-operation class; PhaseS sums each
	// phase's duration across all jobs (fleet phase-mix fingerprint).
	ByClass map[string]int     `json:"by_class"`
	PhaseS  map[string]float64 `json:"phase_s"`
}

// Result is one completed fleet run.
type Result struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	Pair     string `json:"pair"`
	Seed     int64  `json:"seed"`

	Cells int `json:"cells"`
	Hosts int `json:"hosts"`
	VMs   int `json:"vms"`

	// InputMB is the total HDFS input the scenario places (all jobs).
	InputMB int64 `json:"input_mb"`

	// Jobs is ordered by (cell, admission order) — deterministic.
	Jobs []JobOutcome `json:"jobs"`

	Agg Aggregate `json:"agg"`

	// SimEvents totals the events fired across every cell engine
	// (deterministic). WallS/EventsPerSec are wall-clock telemetry over
	// building and running every cell, set only when Options.Perf was
	// enabled (machine-dependent, never part of byte-identity
	// comparisons).
	SimEvents    int64   `json:"sim_events"`
	WallS        float64 `json:"wall_s,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// buildResult assembles the Result from finished cells.
func buildResult(s Scenario, cells []cell) *Result {
	res := &Result{
		Scenario: s.Name,
		Policy:   s.Policy,
		Pair:     s.Pair,
		Seed:     s.Seed,
		Cells:    s.Cells,
		Hosts:    s.TotalHosts(),
		VMs:      s.TotalVMs(),
	}
	agg := Aggregate{ByClass: map[string]int{}, PhaseS: map[string]float64{}}

	var durations, waits []float64
	var lastDone sim.Duration
	var overlapSum float64
	for _, c := range cells {
		for _, rj := range c.jobs {
			r := rj.res
			arrive := rj.inst.arrive // already scenario time
			admit := rj.admit.Sub(c.epoch)
			done := r.Done.Sub(c.epoch)
			out := JobOutcome{
				ID:         rj.inst.id,
				Benchmark:  rj.inst.bench,
				Class:      rj.inst.class.String(),
				Cell:       c.idx,
				Queue:      rj.inst.queue,
				Priority:   rj.inst.prio,
				Weight:     rj.inst.weight,
				ArriveMS:   int64(sim.Duration(arrive) / sim.Millisecond),
				AdmitMS:    int64(admit / sim.Millisecond),
				DoneMS:     int64(done / sim.Millisecond),
				WaitMS:     int64((admit - sim.Duration(arrive)) / sim.Millisecond),
				DurationMS: int64(r.Duration / sim.Millisecond),
				MapS:       r.MapsDoneAt.Sub(r.Start).Seconds(),
				ShuffleS:   r.ShuffleDoneAt.Sub(r.MapsDoneAt).Seconds(),
				ReduceS:    r.Done.Sub(r.ShuffleDoneAt).Seconds(),
				Maps:       r.NumMaps,
				Reduces:    r.NumReduces,
				OverlapPct: overlapPct(rj, c.jobs),
			}
			res.Jobs = append(res.Jobs, out)
			res.InputMB += rj.inst.cfg.InputPerVM * int64(c.vms) >> 20

			durations = append(durations, r.Duration.Seconds())
			waits = append(waits, (admit - sim.Duration(arrive)).Seconds())
			if done > lastDone {
				lastDone = done
			}
			overlapSum += out.OverlapPct
			agg.ByClass[out.Class]++
			agg.PhaseS["map"] += out.MapS
			agg.PhaseS["shuffle"] += out.ShuffleS
			agg.PhaseS["reduce"] += out.ReduceS
		}
		if c.peak > agg.PeakConcurrency {
			agg.PeakConcurrency = c.peak
		}
		res.SimEvents += int64(c.events)
	}

	agg.Jobs = len(res.Jobs)
	agg.MakespanS = lastDone.Seconds()
	if agg.MakespanS > 0 {
		agg.ThroughputJobsPerHour = float64(agg.Jobs) / (agg.MakespanS / 3600)
	}
	if n := len(durations); n > 0 {
		agg.MeanDurationS = mean(durations)
		agg.P50DurationS = percentile(durations, 0.50)
		agg.P95DurationS = percentile(durations, 0.95)
		agg.MeanWaitS = mean(waits)
		agg.MaxWaitS = maxOf(waits)
		agg.MeanOverlapPct = overlapSum / float64(n)
	}
	res.Agg = agg
	return res
}

// overlapPct computes the share of rj's [admit, done] window during
// which at least one other job in the same cell was running: the union
// of the other jobs' run intervals intersected with rj's, over rj's
// length.
func overlapPct(rj *runningJob, all []*runningJob) float64 {
	start, end := rj.admit, rj.res.Done
	if end <= start {
		return 0
	}
	type iv struct{ a, b sim.Time }
	var ivs []iv
	for _, o := range all {
		if o == rj {
			continue
		}
		a, b := o.admit, o.res.Done
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered sim.Duration
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.a > cur.b {
			covered += cur.b.Sub(cur.a)
			cur = v
			continue
		}
		if v.b > cur.b {
			cur.b = v.b
		}
	}
	covered += cur.b.Sub(cur.a)
	return 100 * float64(covered) / float64(end.Sub(start))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// percentile returns the nearest-rank p-quantile of xs (sorted copy).
func percentile(xs []float64, p float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	idx := int(p*float64(len(c))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c) {
		idx = len(c) - 1
	}
	return c[idx]
}
