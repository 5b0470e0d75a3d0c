// Package control is the online adaptive controller: the closed-loop
// counterpart of the paper's offline meta-scheduler. Instead of profiling
// candidate pairs up front and committing to a phase plan, the controller
// watches the live I/O mix through analyze.Sampler.Level while the job (or
// a whole multi-job cell) runs, classifies each sampling window into a
// regime — read-dominated, write-dominated, mixed or idle — and issues
// cluster-wide elevator switches when the regime durably calls for a
// different (VMM, VM) pair.
//
// Switching is never free (Fig 5: a command drains the old elevator and
// stalls through re-init, and the cost is non-commutative — leaving an
// idling elevator costs more than leaving a work-conserving one), so every
// decision passes three hysteresis gates before a command is issued:
//
//   - stability: the same target pair must win StableWindows consecutive
//     non-idle windows (one noisy window never triggers a switch);
//   - dwell: at least MinDwell since the previous command (no thrash —
//     consecutive issued switches are always MinDwell apart);
//   - amortisation: the modelled switch cost must fit inside CostBudget
//     of the guaranteed dwell, consulted through the Fig-5 cost model
//     (core.FigureFiveCost by default, or the policy's own Cost).
//
// Every window where the classifier wants a pair that is not installed
// produces a Decision record — issued or held, with the gate that held it
// — so a run's switching behaviour is fully explainable after the fact
// and streamable (OnDecision) while it happens.
package control

import (
	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
)

// Regime is one sampling window's classified I/O mix.
type Regime uint8

const (
	// RegimeIdle: too few completions to classify (MinRequests gate).
	RegimeIdle Regime = iota
	// RegimeRead: read share at or above ReadShareHigh with enough sync
	// traffic for anticipation to pay off.
	RegimeRead
	// RegimeWrite: read share at or below ReadShareLow.
	RegimeWrite
	// RegimeMixed: anything in between — no pair preference, hold.
	RegimeMixed
)

func (r Regime) String() string {
	switch r {
	case RegimeIdle:
		return "idle"
	case RegimeRead:
		return "read"
	case RegimeWrite:
		return "write"
	default:
		return "mixed"
	}
}

// Policy parameterises the controller. The zero value of every field is
// replaced by its DefaultPolicy counterpart, so callers can override just
// the knobs they care about.
type Policy struct {
	// Level is the sampler level the controller classifies ("dom0": the
	// physical spindle the paper's contention story is about).
	Level string

	// StartPair is the pair installed at boot (zero = iosched.DefaultPair,
	// the stock CFQ/CFQ configuration).
	StartPair iosched.Pair

	// Window is the sampling period: one classification per window.
	Window sim.Duration

	// MinDwell is the minimum spacing between issued switch commands.
	MinDwell sim.Duration

	// StableWindows is how many consecutive non-idle windows must agree on
	// the same target pair before a command may be issued.
	StableWindows int

	// MinRequests is the per-window completion count below which the
	// window classifies as idle (held out of the streak entirely).
	MinRequests int64

	// ReadShareHigh / ReadShareLow split the regimes by the window's read
	// byte share: >= High is read-dominated, <= Low is write-dominated.
	ReadShareHigh float64
	ReadShareLow  float64

	// SyncReadMin demotes a read-dominated window to mixed when its sync
	// share is below this bound: anticipation only pays for synchronous
	// readers that block on their next request.
	SyncReadMin float64

	// CostBudget is the amortisation gate: a switch is issued only when
	// Cost(from, to) <= CostBudget × MinDwell, i.e. the stall can pay for
	// itself within the guaranteed dwell.
	CostBudget float64

	// Regime targets (mixed and idle hold the installed pair).
	ReadPair  iosched.Pair
	WritePair iosched.Pair

	// Cost models the Fig-5 switch cost. Nil selects core.FigureFiveCost
	// over the attached cluster's re-init stall at Attach time.
	Cost func(from, to iosched.Pair) sim.Duration
}

// DefaultPolicy returns the regime mapping the coarse-grained study
// suggests (anticipation in Dom0 for read phases, CFQ for write-heavy
// phases) with hysteresis sized for MapReduce phases: half-second windows,
// 1.5 s of agreement before a switch, ten-second dwell.
func DefaultPolicy() Policy {
	return Policy{
		Level:         "dom0",
		StartPair:     iosched.DefaultPair,
		Window:        500 * sim.Millisecond,
		MinDwell:      10 * sim.Second,
		StableWindows: 3,
		MinRequests:   8,
		ReadShareHigh: 0.6,
		ReadShareLow:  0.25,
		SyncReadMin:   0.4,
		CostBudget:    0.02,
		ReadPair:      iosched.Pair{VMM: iosched.Anticipatory, VM: iosched.CFQ},
		WritePair:     iosched.Pair{VMM: iosched.CFQ, VM: iosched.CFQ},
	}
}

// withDefaults fills zero fields from DefaultPolicy.
func (p Policy) withDefaults() Policy {
	def := DefaultPolicy()
	if p.Level == "" {
		p.Level = def.Level
	}
	if p.StartPair == (iosched.Pair{}) {
		p.StartPair = def.StartPair
	}
	if p.Window <= 0 {
		p.Window = def.Window
	}
	if p.MinDwell <= 0 {
		p.MinDwell = def.MinDwell
	}
	if p.StableWindows <= 0 {
		p.StableWindows = def.StableWindows
	}
	if p.MinRequests <= 0 {
		p.MinRequests = def.MinRequests
	}
	if p.ReadShareHigh == 0 {
		p.ReadShareHigh = def.ReadShareHigh
	}
	if p.ReadShareLow == 0 {
		p.ReadShareLow = def.ReadShareLow
	}
	if p.SyncReadMin == 0 {
		p.SyncReadMin = def.SyncReadMin
	}
	if p.CostBudget == 0 {
		p.CostBudget = def.CostBudget
	}
	if p.ReadPair == (iosched.Pair{}) {
		p.ReadPair = def.ReadPair
	}
	if p.WritePair == (iosched.Pair{}) {
		p.WritePair = def.WritePair
	}
	return p
}

// classify maps one window's features onto a regime.
func (p Policy) classify(w analyze.WindowStats) Regime {
	switch {
	case w.Requests < p.MinRequests:
		return RegimeIdle
	case w.ReadShare >= p.ReadShareHigh:
		if w.SyncShare < p.SyncReadMin {
			return RegimeMixed
		}
		return RegimeRead
	case w.ReadShare <= p.ReadShareLow:
		return RegimeWrite
	default:
		return RegimeMixed
	}
}

// Decision is one evaluated window where the classifier preferred a pair
// that was not installed — issued, or held with the gate that held it.
// The embedded window carries the features the classification used
// (read/write split, sync share, queue depth, seek distance), so a
// decision stream doubles as the controller's explain log.
type Decision struct {
	At     sim.Time            `json:"-"`
	AtS    float64             `json:"at_s"`
	Level  string              `json:"level"`
	Regime string              `json:"regime"`
	From   string              `json:"from"`
	To     string              `json:"to"`
	Streak int                 `json:"streak"`
	CostS  float64             `json:"cost_s"`
	Issued bool                `json:"issued"`
	Reason string              `json:"reason"`
	Window analyze.WindowStats `json:"window"`
}

// Hold reasons (Decision.Reason; issued decisions carry ReasonSwitch).
const (
	ReasonSwitch    = "switch"
	ReasonSwitching = "hold:switching" // previous command still draining
	ReasonStreak    = "hold:streak"    // target not stable long enough
	ReasonDwell     = "hold:dwell"     // minimum dwell not elapsed
	ReasonCost      = "hold:cost"      // switch cost fails the budget gate
)

// Controller drives one cluster. It is engine-confined: every mutation
// happens inside simulation events of the attached cluster's engine, so a
// controller needs no locking and is deterministic for a given run.
type Controller struct {
	pol Policy

	// OnDecision, when non-nil, observes every Decision as it is recorded
	// (inside the simulation event that produced it). Set before the run
	// starts.
	OnDecision func(Decision)

	attached   bool
	installed  iosched.Pair
	streakWant iosched.Pair
	streak     int
	lastSwitch sim.Time
	switching  bool

	out Outcome // FinalPairCode is read off installed
}

// Outcome is a controller's record of its run: the pair it found
// installed, the pair its last issued switch left installed (equal when
// it never switched), and what it did in between.
type Outcome struct {
	StartPairCode string `json:"start_pair"`
	FinalPairCode string `json:"final_pair"`
	// Switches counts issued switch commands; Windows counts evaluated
	// sampling windows.
	Switches int `json:"switches"`
	Windows  int `json:"windows"`
	// Decisions is the full decision log, in simulation order: every
	// window where the classifier wanted a different pair, issued or
	// held.
	Decisions []Decision `json:"decisions"`
}

// New builds a controller from the policy (zero fields defaulted). One
// controller drives one run; build a fresh one per attachment.
func New(pol Policy) *Controller {
	return &Controller{pol: pol.withDefaults()}
}

// Policy returns the normalised policy the controller runs.
func (c *Controller) Policy() Policy { return c.pol }

// Attach installs the controller on the cluster: it samples smp every
// Window of simulated time and issues cluster-wide SetPairAll commands
// through the hysteresis gates. The sampler must already be attached to
// the cluster (or be attached before traffic starts). The tick is an
// engine watch (sim.Engine.Watch), so a finished simulation is never kept
// alive. Only the scheduled tick refers to the cluster, the sampler and
// the last sample, so a controller kept for its Outcome keeps none of
// them alive.
func (c *Controller) Attach(cl *cluster.Cluster, smp *analyze.Sampler) {
	if c.attached {
		panic("control: controller attached twice (build one per run)")
	}
	c.attached = true
	if c.pol.Cost == nil {
		c.pol.Cost = core.FigureFiveCost(cl.Config().Host.SwitchReinit, iosched.DefaultParams())
	}
	c.installed = cl.Pair()
	c.out.StartPairCode = c.installed.Code()
	// The opening dwell budget is available immediately, so the controller
	// can react to the first stable regime of the run.
	c.lastSwitch = cl.Eng.Now().Add(-c.pol.MinDwell)
	prev := smp.Level(cl.Eng.Now(), c.pol.Level)
	cl.Eng.Watch(c.pol.Window, c.pol.Window, func() {
		now := cl.Eng.Now()
		cur := smp.Level(now, c.pol.Level)
		c.evaluate(cl, cur.Window(prev), now)
		prev = cur
	})
}

// evaluate classifies the window that just closed and runs the gates; an
// issued switch goes to every elevator of cl.
func (c *Controller) evaluate(cl *cluster.Cluster, w analyze.WindowStats, now sim.Time) {
	c.out.Windows++

	regime := c.pol.classify(w)
	var want iosched.Pair
	switch regime {
	case RegimeIdle:
		// An idle window is evidence of nothing: the streak neither grows
		// nor resets, so a lull between bursts cannot fake stability.
		return
	case RegimeRead:
		want = c.pol.ReadPair
	case RegimeWrite:
		want = c.pol.WritePair
	default:
		c.streak = 0
		return
	}
	if want == c.installed {
		c.streak = 0
		return
	}
	if want != c.streakWant {
		c.streak = 0
		c.streakWant = want
	}
	c.streak++

	cost := c.pol.Cost(c.installed, want)
	d := Decision{
		At:     now,
		AtS:    now.Seconds(),
		Level:  c.pol.Level,
		Regime: regime.String(),
		From:   c.installed.Code(),
		To:     want.Code(),
		Streak: c.streak,
		CostS:  cost.Seconds(),
		Window: w,
	}
	switch {
	case c.switching:
		d.Reason = ReasonSwitching
	case c.streak < c.pol.StableWindows:
		d.Reason = ReasonStreak
	case now.Sub(c.lastSwitch) < c.pol.MinDwell:
		d.Reason = ReasonDwell
	case float64(cost) > c.pol.CostBudget*float64(c.pol.MinDwell):
		d.Reason = ReasonCost
	default:
		d.Issued = true
		d.Reason = ReasonSwitch
		c.lastSwitch = now
		c.out.Switches++
		c.installed = want
		c.streak = 0
		c.switching = true
		cl.SetPairAll(want, func() { c.switching = false })
	}
	c.out.Decisions = append(c.out.Decisions, d)
	if c.OnDecision != nil {
		c.OnDecision(d)
	}
}

// Outcome returns the controller's record of its run so far; the
// decision log is a copy.
func (c *Controller) Outcome() Outcome {
	o := c.out
	o.FinalPairCode = c.installed.Code()
	o.Decisions = append([]Decision(nil), c.out.Decisions...)
	return o
}
