// Package core implements the paper's primary contribution: a
// meta-scheduler that adaptively tunes the (VMM, VM) disk-scheduler pair at
// phase boundaries of a single MapReduce job.
//
// The workflow mirrors Section IV of the paper:
//
//  1. Phase detection — the job is divided into coarse phases on the
//     runtime's own progress events (all maps done; shuffle done). With ≥4
//     map waves the non-concurrent shuffle is tiny (Table II), so the
//     default scheme merges the shuffle into the reduce phase, yielding the
//     paper's two-phase split.
//  2. Profiling — the job is executed once per candidate pair, recording
//     per-phase durations (Fig 6); the pairs are ranked per phase.
//  3. Heuristic assignment (Algorithm 1) — phases are fixed left to right;
//     for each phase the ranked candidates are accepted while they keep
//     improving the measured end-to-end time, evaluated with the remaining
//     phases pinned to their best joint pair, so the non-commutative switch
//     cost (Fig 5) is part of every measurement.
//
// A 0 in a solution means "do not issue the switch command": re-asserting
// even the same pair drains and re-initialises every queue, so the
// meta-scheduler suppresses the command when the previous phase already
// runs the chosen pair.
package core

import (
	"fmt"
	"strings"

	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/obs"
	"adaptmr/internal/obs/perfstat"
	"adaptmr/internal/sim"
)

// Scheme selects how many switchable phases the job is divided into.
type Scheme int

const (
	// TwoPhases switches only when all maps finish (paper's configuration
	// for ≥4 map waves, where the non-concurrent shuffle is negligible).
	TwoPhases Scheme = 2
	// ThreePhases switches at maps-done and at shuffle-done.
	ThreePhases Scheme = 3
)

// Phases returns the number of phases in the scheme.
func (s Scheme) Phases() int { return int(s) }

func (s Scheme) String() string {
	switch s {
	case TwoPhases:
		return "2-phase"
	case ThreePhases:
		return "3-phase"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Plan assigns a scheduler pair to each phase of a job.
type Plan struct {
	Scheme Scheme
	Pairs  []iosched.Pair
}

// NewPlan builds a plan, validating the pair count against the scheme.
func NewPlan(scheme Scheme, pairs ...iosched.Pair) Plan {
	if len(pairs) != scheme.Phases() {
		panic(fmt.Sprintf("core: plan needs %d pairs, got %d", scheme.Phases(), len(pairs)))
	}
	return Plan{Scheme: scheme, Pairs: pairs}
}

// Uniform returns a plan using one pair for every phase (no switches).
func Uniform(scheme Scheme, p iosched.Pair) Plan {
	pairs := make([]iosched.Pair, scheme.Phases())
	for i := range pairs {
		pairs[i] = p
	}
	return Plan{Scheme: scheme, Pairs: pairs}
}

// Switches returns, per phase boundary (len = phases), whether the switch
// command is issued when entering that phase. Entry 0 is always false (the
// first pair is installed before the job starts); later entries are false
// when the pair repeats — the paper's "assign 0, no switch" rule.
func (p Plan) Switches() []bool {
	out := make([]bool, len(p.Pairs))
	for i := 1; i < len(p.Pairs); i++ {
		out[i] = p.Pairs[i] != p.Pairs[i-1]
	}
	return out
}

// NumSwitches counts the switch commands the plan issues.
func (p Plan) NumSwitches() int {
	n := 0
	for _, s := range p.Switches() {
		if s {
			n++
		}
	}
	return n
}

// RuntimePairs expands the plan onto the three runtime phases (map,
// shuffle, reduce). A two-phase plan's second pair covers both shuffle and
// reduce. Two plans with equal expansions execute identically.
func (p Plan) RuntimePairs() [3]iosched.Pair {
	switch p.Scheme {
	case TwoPhases:
		return [3]iosched.Pair{p.Pairs[0], p.Pairs[1], p.Pairs[1]}
	case ThreePhases:
		return [3]iosched.Pair{p.Pairs[0], p.Pairs[1], p.Pairs[2]}
	}
	panic("core: unknown scheme")
}

// Key is a canonical form usable as a memoisation key: plans that execute
// identically (same pair over each runtime phase) share a key regardless
// of scheme.
func (p Plan) Key() string {
	r := p.RuntimePairs()
	return r[0].Code() + "|" + r[1].Code() + "|" + r[2].Code()
}

func (p Plan) String() string {
	parts := make([]string, len(p.Pairs))
	for i, pr := range p.Pairs {
		if i > 0 && pr == p.Pairs[i-1] {
			parts[i] = "0" // no switch issued
			continue
		}
		parts[i] = pr.String()
	}
	return "[" + strings.Join(parts, " → ") + "]"
}

// RunResult is the outcome of executing a job under a plan.
type RunResult struct {
	Plan     Plan
	Duration sim.Duration
	Job      mapred.Result
	// SwitchStall is the total time queues spent draining/stalling for
	// switches across the cluster (aggregate, overlapping included).
	SwitchStall sim.Duration
	// Metrics is this evaluation's private metrics snapshot (nil when the
	// runner executed without a metrics registry). The Runner also folds
	// it into the caller's shared registry.
	Metrics *obs.Snapshot
	// Perf carries engine self-telemetry for the evaluation (nil unless
	// Runner.CollectPerf was set; a memo hit returns the stats of the
	// evaluation that answered it).
	Perf *perfstat.Stat
	// Journeys summarises the evaluation's per-request latency
	// decompositions (nil unless a journey log was attached via
	// ClusterConfig.Obs.Journeys).
	Journeys *obs.JourneySummary
	// Decisions summarises scheduler decision tallies per queue level
	// (nil unless a decision log was attached).
	Decisions *obs.DecisionSummary
}

// Profile records one pair's full-job execution broken into phases; the
// profiling stage ranks pairs per phase from these (Fig 6, Fig 8).
type Profile struct {
	Pair    iosched.Pair
	Total   sim.Duration
	ByPhase [3]sim.Duration // map, shuffle, reduce (runtime phases)
	Result  mapred.Result
}

// PhaseDuration returns the duration of scheme-phase i under the profile:
// for TwoPhases, phase 1 is the map phase and phase 2 merges shuffle and
// reduce; for ThreePhases they map one-to-one.
func (p Profile) PhaseDuration(scheme Scheme, i int) sim.Duration {
	if i < 0 || i >= scheme.Phases() {
		panic(fmt.Sprintf("core: phase %d out of range for %v", i, scheme))
	}
	if scheme == TwoPhases {
		if i == 0 {
			return p.ByPhase[0]
		}
		return p.ByPhase[1] + p.ByPhase[2]
	}
	return p.ByPhase[i]
}
