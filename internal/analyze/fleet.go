package analyze

import (
	"fmt"
	"io"
	"strconv"

	"adaptmr/internal/fleet"
)

// BenchFromFleet condenses a fleet run into the committed gate summary.
// The workload label is namespaced ("fleet:<scenario>") so a fleet bench
// can never be compared against a single-job baseline by accident; phase
// times are the per-phase sums across every job (the fleet phase-mix
// fingerprint). Perf telemetry carries over only when the run collected
// it.
func BenchFromFleet(res *fleet.Result) Bench {
	b := Bench{
		Schema:   benchSchema,
		Workload: "fleet:" + res.Scenario,
		Hosts:    res.Hosts,
		VMs:      res.VMs,
		InputMB:  res.InputMB,
		Seed:     res.Seed,
		Pair:     res.Pair,

		MakespanS: round6(res.Agg.MakespanS),
		PhaseS:    map[string]float64{},
		BlameS:    map[string]float64{},
		SimEvents: res.SimEvents,
	}
	for name, s := range res.Agg.PhaseS {
		b.PhaseS[name] = round6(s)
	}
	b.WallS = round6(res.WallS)
	b.EventsPerSec = round6(res.EventsPerSec)
	return b
}

// WriteFleetMarkdown renders a fleet result as a markdown report:
// scenario header, aggregate table, per-class mix, and the per-job
// outcome table in (cell, admission) order.
func WriteFleetMarkdown(w io.Writer, res *fleet.Result) error {
	d := &document{title: "Fleet report: " + res.Scenario}
	d.para("%d cells × %d hosts (%d VMs total), pair `%s`, policy `%s`, seed %d, input %d MB",
		res.Cells, res.Hosts, res.VMs, res.Pair, res.Policy, res.Seed, res.InputMB)

	a := res.Agg
	d.h2("Aggregate")
	t := d.table("%s %s", "metric", "value")
	t.row("jobs completed", strconv.Itoa(a.Jobs))
	t.row("makespan", fmt.Sprintf("%.1f s", a.MakespanS))
	t.row("throughput", fmt.Sprintf("%.1f jobs/hour", a.ThroughputJobsPerHour))
	t.row("job duration mean / p50 / p95", fmt.Sprintf("%.1f / %.1f / %.1f s",
		a.MeanDurationS, a.P50DurationS, a.P95DurationS))
	t.row("admission wait mean / max", fmt.Sprintf("%.1f / %.1f s", a.MeanWaitS, a.MaxWaitS))
	t.row("peak concurrency (per cell)", strconv.Itoa(a.PeakConcurrency))
	t.row("mean phase overlap", fmt.Sprintf("%.1f %%", a.MeanOverlapPct))
	t.row("sim events", strconv.FormatInt(res.SimEvents, 10))
	if res.WallS > 0 {
		t.row("wall clock", fmt.Sprintf("%.2f s (%.0f events/s)", res.WallS, res.EventsPerSec))
	}

	if len(a.ByClass) > 0 {
		d.h2("Disk-operation class mix")
		t = d.table("%s %d", "class", "jobs")
		for _, c := range sortedKeys(a.ByClass) {
			t.row(c, a.ByClass[c])
		}
		d.para("total phase time: map %.1f s, shuffle %.1f s, reduce %.1f s",
			a.PhaseS["map"], a.PhaseS["shuffle"], a.PhaseS["reduce"])
	}

	d.h2("Jobs")
	t = d.table("%s %s %s %d %s %.1fs %.1fs %.1fs %s %.0f%%",
		"job", "bench", "class", "cell", "queue", "arrive", "wait", "duration",
		"map/shuffle/reduce (s)", "overlap")
	for _, j := range res.Jobs {
		queue := j.Queue
		if queue == "" {
			queue = "-"
		}
		t.row(j.ID, j.Benchmark, j.Class, j.Cell, queue,
			float64(j.ArriveMS)/1000, float64(j.WaitMS)/1000, float64(j.DurationMS)/1000,
			fmt.Sprintf("%.1f/%.1f/%.1f", j.MapS, j.ShuffleS, j.ReduceS), j.OverlapPct)
	}
	if err := writeMarkdown(w, d); err != nil {
		return fmt.Errorf("analyze: fleet report: %w", err)
	}
	return nil
}
