package analyze

import (
	"sort"

	"adaptmr/internal/obs"
)

// JourneyAnalysis aggregates the run's per-request latency decompositions.
// Stage nanoseconds are exact integers: within every scope (run, phase,
// VM) the stage values sum exactly to the scope's TotalNS.
type JourneyAnalysis struct {
	// Summary is the whole-run aggregate.
	Summary *obs.JourneySummary `json:"summary"`
	// AllExact reports that every individual journey's stages summed
	// exactly to its end-to-end latency (the tracker's invariant; a false
	// value means the check harness also recorded violations).
	AllExact bool `json:"all_exact"`
	// Unattributed counts journeys completing outside every phase window
	// (e.g. during the pre-job pair install).
	Unattributed int64 `json:"unattributed"`
	// Phases buckets journeys by completion time into the job's phase
	// windows.
	Phases []PhaseJourneys `json:"phases"`
}

// PhaseJourneys is the journey aggregate of one phase window.
type PhaseJourneys struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	Merged   int64  `json:"merged"`
	Reads    int64  `json:"reads"`
	// TotalNS is the summed end-to-end latency; StageNS sums exactly to it.
	TotalNS  int64              `json:"total_ns"`
	StageNS  map[string]int64   `json:"stage_ns"`
	StagePct map[string]float64 `json:"stage_pct"`
	// Dominant is the stage with the largest share of the phase's latency.
	Dominant    string  `json:"dominant"`
	DominantPct float64 `json:"dominant_pct"`
	// End-to-end latency quantiles (histogram-interpolated).
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// PerVM breaks the phase down by issuing guest, sorted (host, vm).
	PerVM []VMJourneys `json:"per_vm"`
}

// VMJourneys is one guest's journey aggregate within a phase.
type VMJourneys struct {
	Host     int              `json:"host"`
	VM       int              `json:"vm"`
	Requests int64            `json:"requests"`
	TotalNS  int64            `json:"total_ns"`
	StageNS  map[string]int64 `json:"stage_ns"`
}

// DecisionAnalysis aggregates scheduler decision provenance: whole-run
// tallies from the decision log, and per-phase tallies recovered from the
// trace's "decision" instants (present only when a tracer was attached).
type DecisionAnalysis struct {
	Summary *obs.DecisionSummary `json:"summary,omitempty"`
	Phases  []PhaseDecisions     `json:"phases,omitempty"`
}

// PhaseDecisions tallies decisions per queue level inside one phase
// window, keyed by canonical decision name; only non-zero kinds appear.
type PhaseDecisions struct {
	Name string           `json:"name"`
	VM   map[string]int64 `json:"vm,omitempty"`
	Dom0 map[string]int64 `json:"dom0,omitempty"`
}

func journeyAnalysis(m *model, log *obs.JourneyLog) *JourneyAnalysis {
	ja := &JourneyAnalysis{Summary: log.Summary(), AllExact: true}
	type vmKey struct{ host, vm int }
	type phaseAcc struct {
		pj   PhaseJourneys
		hist *obs.Histogram
		vms  map[vmKey]*VMJourneys
	}
	// A transient registry holds the per-phase latency histograms used for
	// quantile interpolation (same bucket layout as the live io.* metrics).
	reg := obs.NewRegistry()
	phases, windows := activePhases(m)
	accs := make([]*phaseAcc, len(phases))
	for i, name := range phases {
		accs[i] = &phaseAcc{
			pj: PhaseJourneys{
				Name:     name,
				StageNS:  zeroStageMap(),
				StagePct: make(map[string]float64, obs.NumStages),
			},
			hist: reg.Histogram("explain."+name, obs.LatencyEdgesMs()),
			vms:  make(map[vmKey]*VMJourneys),
		}
	}
	names := obs.StageNames()
	for _, rec := range log.Records() {
		if rec.StageSum() != rec.Total() {
			ja.AllExact = false
		}
		var acc *phaseAcc
		for i, w := range windows {
			if inWindow(rec.Completed, w) {
				acc = accs[i]
				break
			}
		}
		if acc == nil {
			ja.Unattributed++
			continue
		}
		acc.pj.Requests++
		if rec.Merged {
			acc.pj.Merged++
		}
		if rec.Read {
			acc.pj.Reads++
		}
		acc.pj.TotalNS += int64(rec.Total())
		for st, d := range rec.Stages {
			acc.pj.StageNS[names[st]] += int64(d)
		}
		acc.hist.Observe(rec.Total().Millis())
		k := vmKey{rec.Host, rec.VM}
		v := acc.vms[k]
		if v == nil {
			v = &VMJourneys{Host: rec.Host, VM: rec.VM, StageNS: zeroStageMap()}
			acc.vms[k] = v
		}
		v.Requests++
		v.TotalNS += int64(rec.Total())
		for st, d := range rec.Stages {
			v.StageNS[names[st]] += int64(d)
		}
	}
	for _, acc := range accs {
		pj := &acc.pj
		if pj.TotalNS > 0 {
			for name, ns := range pj.StageNS {
				pct := round6(100 * float64(ns) / float64(pj.TotalNS))
				pj.StagePct[name] = pct
				if pct > pj.DominantPct || (pct == pj.DominantPct && name < pj.Dominant) {
					pj.Dominant, pj.DominantPct = name, pct
				}
			}
		}
		if pj.Requests > 0 {
			pj.P50Ms = round6(acc.hist.Quantile(0.50))
			pj.P95Ms = round6(acc.hist.Quantile(0.95))
			pj.P99Ms = round6(acc.hist.Quantile(0.99))
		}
		keys := make([]vmKey, 0, len(acc.vms))
		for k := range acc.vms {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].host != keys[b].host {
				return keys[a].host < keys[b].host
			}
			return keys[a].vm < keys[b].vm
		})
		for _, k := range keys {
			pj.PerVM = append(pj.PerVM, *acc.vms[k])
		}
		ja.Phases = append(ja.Phases, *pj)
	}
	return ja
}

func zeroStageMap() map[string]int64 {
	m := make(map[string]int64, obs.NumStages)
	for _, name := range obs.StageNames() {
		m[name] = 0
	}
	return m
}

func decisionAnalysis(m *model, tr *obs.Tracer, log *obs.DecisionLog) *DecisionAnalysis {
	da := &DecisionAnalysis{Summary: log.Summary()}
	if tr == nil {
		return da
	}
	phases, windows := activePhases(m)
	da.Phases = make([]PhaseDecisions, len(phases))
	for i, name := range phases {
		da.Phases[i].Name = name
	}
	tr.VisitEvents(func(ev obs.Event) {
		if ev.Kind != obs.KindInstant || ev.Cat != "decision" {
			return
		}
		for i, w := range windows {
			if !inWindow(ev.Start, w) {
				continue
			}
			tally := &da.Phases[i].VM
			if ev.TID == obs.TIDDom0 {
				tally = &da.Phases[i].Dom0
			}
			if *tally == nil {
				*tally = make(map[string]int64)
			}
			(*tally)[ev.Name]++
			break
		}
	})
	return da
}

// activePhases returns the names and windows of the job's phases that
// have a duration.
func activePhases(m *model) ([]string, []window) {
	var names []string
	var windows []window
	for pi, w := range m.phases {
		if w.dur() > 0 {
			names = append(names, phaseNames[pi])
			windows = append(windows, w)
		}
	}
	return names, windows
}
