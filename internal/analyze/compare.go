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

	// Simulated metrics. The simulator is deterministic, so each of these
	// gates exactly: any change needs a refreshed baseline.
	MakespanS    float64            `json:"makespan_s"`
	PhaseS       map[string]float64 `json:"phase_s"`
	BlameS       map[string]float64 `json:"blame_s"`
	SwitchStallS float64            `json:"switch_stall_s"`
	Dom0MB       float64            `json:"dom0_mb"`
	SimEvents    int64              `json:"sim_events"`

	// Switches counts issued in-run elevator switches (online-controller
	// benches only; omitted elsewhere).
	Switches int `json:"switches,omitempty"`

	// Engine self-telemetry (schema v2), present only when the run was
	// executed with perf collection enabled. allocs_per_event gates
	// within 10% of the baseline and under an absolute ceiling;
	// events_per_sec is wall-clock and machine-dependent, so it
	// gates only on a halving; the rest are informational.
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

// Delta is one compared metric. Regressed means the candidate broke
// the metric's rule: any change at all on a deterministic row, or a perf
// row outside its bound.
type Delta struct {
	Metric    string  `json:"metric"`
	Base      float64 `json:"base"`
	Candidate float64 `json:"candidate"`
	// DeltaFrac is (candidate - base) / base, or 0 when base is 0.
	DeltaFrac float64 `json:"delta_frac"`
	Gated     bool    `json:"gated"`
	Regressed bool    `json:"regressed"`
}

// Comparison is the result of gating a candidate bench against a
// baseline.
type Comparison struct {
	Deltas []Delta `json:"deltas"`
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

// allocTol is the relative slack for the allocs/event gate. Twelve fresh
// gate processes of one build read the sort entry within 0.7% of their
// median (0.17655–0.17774 allocs/event, 2 cores), so the bound sits more
// than ten times above that spread, while one heap object per merge
// index key (+16% on that entry) or a per-request closure still trips.
const allocTol = 0.10

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

// Compare gates cand against base. The simulator is bit-deterministic,
// so every simulated field — makespan, phases, switch stall, switches,
// event count, blame and Dom0 volume — moves only when the model does:
// each gates exactly, in either direction. The perf rows, which measure
// the machine, keep their bounds. It errors if the two benches were
// produced by different run configurations.
func Compare(base, cand Bench) (Comparison, error) {
	if err := configMismatch(base, cand); err != nil {
		return Comparison{}, err
	}
	var c Comparison
	c.exact("makespan_s", base.MakespanS, cand.MakespanS)
	for _, name := range sortedKeys2(base.PhaseS, cand.PhaseS) {
		c.exact("phase."+name+"_s", base.PhaseS[name], cand.PhaseS[name])
	}
	c.exact("switch_stall_s", base.SwitchStallS, cand.SwitchStallS)
	if base.Switches > 0 || cand.Switches > 0 {
		c.exact("switches", float64(base.Switches), float64(cand.Switches))
	}
	c.exact("sim_events", float64(base.SimEvents), float64(cand.SimEvents))
	for _, name := range sortedKeys2(base.BlameS, cand.BlameS) {
		c.exact("blame."+name+"_s", base.BlameS[name], cand.BlameS[name])
	}
	c.exact("dom0_mb", base.Dom0MB, cand.Dom0MB)

	// Perf dimensions (schema v2), shown only when a side carries them.
	// They gate only when both do, so comparing a run recorded without
	// perf collection against one with it reports instead of flagging a
	// zero→nonzero jump.
	if !base.hasPerf() && !cand.hasPerf() {
		return c, nil
	}
	c.row("allocs_per_event", base.AllocsPerEvent, cand.AllocsPerEvent,
		base.AllocsPerEvent > 0 && cand.AllocsPerEvent > 0,
		cand.AllocsPerEvent > base.AllocsPerEvent*(1+allocTol))
	// The absolute budget gates on the candidate alone (the baseline is
	// shown for context), so it fires even when the baseline itself has
	// drifted over the ceiling.
	if cand.AllocsPerEvent > 0 {
		c.row("allocs_per_event_ceiling", allocCeiling, cand.AllocsPerEvent,
			true, cand.AllocsPerEvent > allocCeiling)
	}
	c.row("events_per_sec", base.EventsPerSec, cand.EventsPerSec,
		base.EventsPerSec > 0 && cand.EventsPerSec > 0,
		cand.EventsPerSec < base.EventsPerSec*(1-throughputTol))
	c.row("wall_s", base.WallS, cand.WallS, false, false)
	c.row("bytes_per_event", base.BytesPerEvent, cand.BytesPerEvent, false, false)
	c.row("gc_cycles", float64(base.GCCycles), float64(cand.GCCycles), false, false)
	c.row("gc_pause_ms", base.GCPauseMS, cand.GCPauseMS, false, false)
	return c, nil
}

// hasPerf reports whether b carries any engine self-telemetry.
func (b Bench) hasPerf() bool {
	return b.WallS != 0 || b.EventsPerSec != 0 || b.AllocsPerEvent != 0 ||
		b.BytesPerEvent != 0 || b.GCCycles != 0 || b.GCPauseMS != 0
}

// exact records a gated row with no slack: any difference from the
// baseline regresses.
func (c *Comparison) exact(metric string, base, cand float64) {
	c.row(metric, base, cand, true, cand != base)
}

// row records one row; worse marks a regression only on a gated row.
func (c *Comparison) row(metric string, base, cand float64, gated, worse bool) {
	d := Delta{Metric: metric, Base: base, Candidate: cand, Gated: gated, Regressed: gated && worse}
	if base != 0 {
		d.DeltaFrac = round6((cand - base) / base)
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
		verdict := "ok"
		switch {
		case d.Regressed:
			verdict = "REGRESSED"
		case !d.Gated:
			verdict = "(info)"
		}
		tw.printf("%-22s %14.10g %14.10g %8.2f%%  %s\n",
			d.Metric, d.Base, d.Candidate, d.DeltaFrac*100, verdict)
	}
	if c.Regressed() {
		tw.printf("\nFAIL: a simulated row moved or a perf row left its bound\n")
	} else {
		tw.printf("\nPASS: simulated rows exact, perf rows within bounds\n")
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
