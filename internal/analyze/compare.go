package analyze

import (
	"fmt"
	"sort"
	"strings"
)

// benchSchema versions the committed baseline format independently from
// the full report schema. v2 added the engine self-telemetry dimensions
// (wall_s, events_per_sec, allocs_per_event, bytes_per_event, gc_*).
const benchSchema = "adaptmr-bench/v2"

// Bench is the compact, committed-to-git summary of one run: the
// configuration labels that identify the workload plus the handful of
// scalar metrics the regression gate watches. It is small enough to diff
// by eye in code review.
type Bench struct {
	Schema string `json:"schema"`

	// Run configuration. Two benches are comparable only if all of these
	// match — comparing a 2-host run against a 4-host baseline is a
	// config error, not a regression.
	Workload string `json:"workload"`
	Hosts    int    `json:"hosts"`
	VMs      int    `json:"vms"`
	InputMB  int64  `json:"input_mb"`
	Seed     int64  `json:"seed"`
	Pair     string `json:"pair"`

	// Watched metrics. Makespan and phase times gate on "lower is
	// better"; the informational fields below them are reported in diffs
	// but do not trip the gate.
	MakespanS    float64            `json:"makespan_s"`
	PhaseS       map[string]float64 `json:"phase_s"`
	BlameS       map[string]float64 `json:"blame_s"`
	SwitchStallS float64            `json:"switch_stall_s"`
	Dom0MB       float64            `json:"dom0_mb"`
	SimEvents    int64              `json:"sim_events"`

	// Switches counts issued in-run elevator switches (online-controller
	// benches only; omitted elsewhere). It gates near-exactly: a changed
	// switch count is a behaviour change that needs an explicit baseline
	// update, not tolerance slack.
	Switches int `json:"switches,omitempty"`

	// Engine self-telemetry (schema v2), present only when the run was
	// executed with perf collection enabled. allocs_per_event is
	// deterministic for a fixed toolchain and gates tightly;
	// events_per_sec is wall-clock and machine-dependent, so it gates
	// only on order-of-magnitude collapses; the rest are informational.
	WallS          float64 `json:"wall_s,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
	BytesPerEvent  float64 `json:"bytes_per_event,omitempty"`
	GCCycles       int64   `json:"gc_cycles,omitempty"`
	GCPauseMS      float64 `json:"gc_pause_ms,omitempty"`
}

// benchFrom condenses a report into its gate summary.
func benchFrom(rep *Report, opts Options) Bench {
	b := Bench{
		Schema:   benchSchema,
		Workload: opts.Workload,
		Hosts:    opts.Hosts,
		VMs:      opts.VMs,
		InputMB:  opts.InputMB,
		Seed:     opts.Seed,
		Pair:     opts.Pair,

		MakespanS:    round6(rep.Job.MakespanS),
		PhaseS:       map[string]float64{},
		BlameS:       map[string]float64{},
		SwitchStallS: round6(rep.Totals.SwitchStallS),
		Dom0MB:       round6(rep.Totals.Dom0MB),
		SimEvents:    rep.Totals.SimEvents,
	}
	for _, p := range rep.Phases {
		b.PhaseS[p.Name] = round6(p.DurationS)
	}
	for layer, s := range rep.Critical.BlameS {
		b.BlameS[layer] = round6(s)
	}
	if p := opts.Perf; p != nil {
		b.WallS = round6(p.WallSeconds)
		b.EventsPerSec = round6(p.EventsPerSec)
		b.AllocsPerEvent = round6(p.AllocsPerEvent)
		b.BytesPerEvent = round6(p.BytesPerEvent)
		b.GCCycles = p.GCCycles
		b.GCPauseMS = round6(p.GCPauseMS)
	}
	return b
}

// Delta is one compared metric. Regressed means the candidate exceeded
// the gate tolerance on a lower-is-better metric; Improved means it came
// in under the baseline by more than the tolerance.
type Delta struct {
	Metric    string  `json:"metric"`
	Base      float64 `json:"base"`
	Candidate float64 `json:"candidate"`
	// DeltaFrac is (candidate - base) / base, or 0 when base is 0.
	DeltaFrac float64 `json:"delta_frac"`
	Gated     bool    `json:"gated"`
	Regressed bool    `json:"regressed"`
	Improved  bool    `json:"improved"`
}

// Comparison is the result of gating a candidate bench against a
// baseline.
type Comparison struct {
	TolFrac float64 `json:"tol_frac"`
	Deltas  []Delta `json:"deltas"`
}

// Regressed reports whether any gated metric regressed.
func (c Comparison) Regressed() bool {
	for _, d := range c.Deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// absFloor is the absolute slack below which a gated metric never trips,
// regardless of relative tolerance — 5ms of makespan noise on a tiny run
// should not fail CI.
const absFloor = 0.005

// allocAbsFloor is the absolute slack for the allocs/event gate: below
// half an extra allocation per event the gate stays quiet, so cold-path
// bookkeeping noise cannot fail CI, while a per-request closure leak
// (typically +1 alloc per I/O, many I/Os per event chain) still trips.
// The pooled engine runs well under one allocation per event, so the
// pre-pooling floor of 2.0 would have let a whole reintroduced
// allocation-per-event slip through unnoticed.
const allocAbsFloor = 0.5

// allocCeiling is the absolute allocations-per-event budget for the
// pooled engine: a candidate above it fails the gate outright, no matter
// what the baseline recorded. The relative gate catches drift against
// the baseline; the ceiling catches a stale or regenerated baseline
// quietly absorbing that drift.
const allocCeiling = 3.0

// throughputTol is the relative tolerance for the events/sec gate. The
// metric is wall-clock, but the gate harness warms the process up and
// keeps the best of several repeats, so runner noise is bounded; losing
// half the baseline throughput indicates a real algorithmic regression
// (an O(n²) event loop, pooling accidentally disabled), not scheduling
// jitter. Finer-grained regressions are the allocs/event gate's job.
const throughputTol = 0.5

// Compare gates cand against base with the given relative tolerance
// (e.g. 0.05 = 5%). It errors if the two benches were produced by
// different run configurations.
func Compare(base, cand Bench, tol float64) (Comparison, error) {
	if err := configMismatch(base, cand); err != nil {
		return Comparison{}, err
	}
	if tol < 0 {
		return Comparison{}, fmtErr("negative tolerance %v", tol)
	}
	c := Comparison{TolFrac: tol}

	// Gated lower-is-better metrics: makespan, per-phase durations,
	// switch stall.
	c.add("makespan_s", base.MakespanS, cand.MakespanS, true, tol)
	for _, name := range sortedKeys2(base.PhaseS, cand.PhaseS) {
		c.add("phase."+name+"_s", base.PhaseS[name], cand.PhaseS[name], true, tol)
	}
	c.add("switch_stall_s", base.SwitchStallS, cand.SwitchStallS, true, tol)
	if base.Switches > 0 || cand.Switches > 0 {
		c.add("switches", float64(base.Switches), float64(cand.Switches), true, tol)
	}

	// The simulator is deterministic, so the event count moves only when
	// the model does: it gates exactly, in either direction.
	c.addExact("sim_events", float64(base.SimEvents), float64(cand.SimEvents))

	// Informational metrics: reported, never gated.
	for _, name := range sortedKeys2(base.BlameS, cand.BlameS) {
		c.add("blame."+name+"_s", base.BlameS[name], cand.BlameS[name], false, tol)
	}
	c.add("dom0_mb", base.Dom0MB, cand.Dom0MB, false, tol)

	// Perf dimensions (schema v2). They gate only when both benches carry
	// them, so comparing runs recorded without perf collection (or mixing
	// one of each) degrades to informational reporting instead of
	// spuriously flagging a zero→nonzero jump.
	perfBoth := base.AllocsPerEvent > 0 && cand.AllocsPerEvent > 0
	c.addMetric("allocs_per_event", base.AllocsPerEvent, cand.AllocsPerEvent,
		perfBoth, tol, allocAbsFloor, false)
	// The absolute budget gates on the candidate alone (the baseline is
	// shown for context), so it fires even when the baseline itself has
	// drifted over the ceiling.
	if cand.AllocsPerEvent > 0 {
		c.Deltas = append(c.Deltas, Delta{
			Metric:    "allocs_per_event_ceiling",
			Base:      allocCeiling,
			Candidate: cand.AllocsPerEvent,
			DeltaFrac: round6((cand.AllocsPerEvent - allocCeiling) / allocCeiling),
			Gated:     true,
			Regressed: cand.AllocsPerEvent > allocCeiling,
		})
	}
	tputBoth := base.EventsPerSec > 0 && cand.EventsPerSec > 0
	c.addMetric("events_per_sec", base.EventsPerSec, cand.EventsPerSec,
		tputBoth, throughputTol, absFloor, true)
	c.add("wall_s", base.WallS, cand.WallS, false, tol)
	c.add("bytes_per_event", base.BytesPerEvent, cand.BytesPerEvent, false, tol)
	c.add("gc_cycles", float64(base.GCCycles), float64(cand.GCCycles), false, tol)
	c.add("gc_pause_ms", base.GCPauseMS, cand.GCPauseMS, false, tol)
	return c, nil
}

// add records a lower-is-better metric with the default absolute floor.
func (c *Comparison) add(metric string, base, cand float64, gated bool, tol float64) {
	c.addMetric(metric, base, cand, gated, tol, absFloor, false)
}

// addExact records a gated metric with no tolerance and no floor: any
// difference from the baseline regresses.
func (c *Comparison) addExact(metric string, base, cand float64) {
	d := Delta{Metric: metric, Base: base, Candidate: cand, Gated: true, Regressed: cand != base}
	if base != 0 {
		d.DeltaFrac = round6((cand - base) / base)
	}
	c.Deltas = append(c.Deltas, d)
}

// addMetric records one compared metric. floor is the absolute slack below
// which the gate never trips; higherBetter inverts the regression
// direction (a throughput metric regresses when the candidate drops).
func (c *Comparison) addMetric(metric string, base, cand float64, gated bool, tol, floor float64, higherBetter bool) {
	d := Delta{Metric: metric, Base: base, Candidate: cand, Gated: gated}
	if base != 0 {
		d.DeltaFrac = round6((cand - base) / base)
	}
	if gated {
		slack := base * tol
		if slack < 0 {
			slack = -slack
		}
		if slack < floor {
			slack = floor
		}
		worse, better := cand > base+slack, cand < base-slack
		if higherBetter {
			worse, better = better, worse
		}
		d.Regressed = worse
		d.Improved = better
	}
	c.Deltas = append(c.Deltas, d)
}

// configMismatch returns a descriptive error when the two benches come
// from different run configurations (or schemas).
func configMismatch(base, cand Bench) error {
	var bad []string
	chk := func(field string, a, b any) {
		if a != b {
			bad = append(bad, fmt.Sprintf("%s (base %v, candidate %v)", field, a, b))
		}
	}
	chk("schema", base.Schema, cand.Schema)
	chk("workload", base.Workload, cand.Workload)
	chk("hosts", base.Hosts, cand.Hosts)
	chk("vms", base.VMs, cand.VMs)
	chk("input_mb", base.InputMB, cand.InputMB)
	chk("seed", base.Seed, cand.Seed)
	chk("pair", base.Pair, cand.Pair)
	if len(bad) > 0 {
		return fmtErr("bench config mismatch: %s", strings.Join(bad, "; "))
	}
	return nil
}

// WriteText renders the comparison as an aligned plain-text table with a
// PASS/FAIL verdict line, suitable for CI logs. It returns the first
// write error.
func (c Comparison) WriteText(w writer) error {
	tw := &errWriter{w: w}
	tw.printf("%-22s %14s %14s %9s  %s\n", "metric", "base", "candidate", "delta", "verdict")
	for _, d := range c.Deltas {
		verdict := ""
		switch {
		case d.Regressed:
			verdict = "REGRESSED"
		case d.Improved:
			verdict = "improved"
		case !d.Gated:
			verdict = "(info)"
		default:
			verdict = "ok"
		}
		tw.printf("%-22s %14.6g %14.6g %8.2f%%  %s\n",
			d.Metric, d.Base, d.Candidate, d.DeltaFrac*100, verdict)
	}
	if c.Regressed() {
		tw.printf("\nFAIL: regression beyond %.1f%% tolerance\n", c.TolFrac*100)
	} else {
		tw.printf("\nPASS: within %.1f%% tolerance\n", c.TolFrac*100)
	}
	return tw.err
}

// writer is the subset of io.Writer used by the renderers (kept local so
// renderer files need no io import for the interface alone).
type writer interface{ Write(p []byte) (int, error) }

// sortedKeys2 returns the union of both maps' keys, sorted.
func sortedKeys2(a, b map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
