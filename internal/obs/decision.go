package obs

import "adaptmr/internal/sim"

// DecisionKind enumerates the scheduler decisions the provenance hook
// records: why an elevator dispatched what it dispatched, what the queue
// did to a request on the way through, and when switch drains held
// traffic back.
type DecisionKind uint8

const (
	// DecDeadlineBatch: deadline continued its current batch.
	DecDeadlineBatch DecisionKind = iota
	// DecDeadlineExpired: deadline restarted its scan at an expired FIFO
	// head (a deadline fired).
	DecDeadlineExpired
	// DecAnticArm: anticipatory opened an anticipation window after a
	// read completion.
	DecAnticArm
	// DecAnticHit: a close read from the anticipated stream arrived
	// inside the window.
	DecAnticHit
	// DecAnticTimeout: the anticipation window expired unsatisfied.
	DecAnticTimeout
	// DecCFQSlice: CFQ granted a queue a time slice.
	DecCFQSlice
	// DecCFQExpire: CFQ expired the active queue's slice.
	DecCFQExpire
	// DecCFQIdle: CFQ armed its end-of-slice idle timer.
	DecCFQIdle
	// DecCFQResume: a request from the active queue arrived during the
	// idle window and the slice resumed.
	DecCFQResume
	// DecCFQFifoExpired: CFQ served a queue's oldest request past its
	// fifo deadline instead of the sector-sorted candidate.
	DecCFQFifoExpired
	// DecMergeFront: the queue front-merged an incoming request.
	DecMergeFront
	// DecMergeBack: the queue back-merged an incoming request.
	DecMergeBack
	// DecSwitchBegin: an elevator switch drain began.
	DecSwitchBegin
	// DecSwitchEnd: an elevator switch finished (backlog replayed).
	DecSwitchEnd

	numDecisionKinds = int(DecSwitchEnd) + 1
)

var decisionNames = [numDecisionKinds]string{
	"deadline.batch", "deadline.expired",
	"antic.arm", "antic.hit", "antic.timeout",
	"cfq.slice", "cfq.expire", "cfq.idle", "cfq.resume", "cfq.fifo_expired",
	"merge.front", "merge.back",
	"switch.begin", "switch.end",
}

// String returns the decision's canonical dotted name (also the trace
// instant's event name under cat "decision").
func (k DecisionKind) String() string { return decisionNames[k] }

// Queue levels a decision is attributed to.
const (
	levelVM   = 0
	levelDom0 = 1
)

// DecisionLog tallies decisions per queue level for one evaluation.
// Single-threaded like the Tracer; fold parallel evaluations with
// Absorb. A nil *DecisionLog discards everything.
type DecisionLog struct {
	counts [2][numDecisionKinds]int64
}

// NewDecisionLog returns an empty decision log.
func NewDecisionLog() *DecisionLog { return &DecisionLog{} }

// Absorb adds src's tallies into l.
func (l *DecisionLog) Absorb(src *DecisionLog) {
	if l == nil || src == nil {
		return
	}
	for lvl := range src.counts {
		for k, n := range src.counts[lvl] {
			l.counts[lvl][k] += n
		}
	}
}

// Count returns the tally for one level ("vm" or "dom0") and kind.
func (l *DecisionLog) Count(level string, k DecisionKind) int64 {
	if l == nil {
		return 0
	}
	lvl := levelVM
	if level == "dom0" {
		lvl = levelDom0
	}
	return l.counts[lvl][k]
}

// DecisionSummary is the per-level decision tallies of one evaluation;
// only non-zero kinds appear, keyed by canonical name.
type DecisionSummary struct {
	VM   map[string]int64 `json:"vm,omitempty"`
	Dom0 map[string]int64 `json:"dom0,omitempty"`
}

// Summary aggregates the log. Returns nil for a nil log.
func (l *DecisionLog) Summary() *DecisionSummary {
	if l == nil {
		return nil
	}
	s := &DecisionSummary{}
	for k, n := range l.counts[levelVM] {
		if n != 0 {
			if s.VM == nil {
				s.VM = make(map[string]int64)
			}
			s.VM[decisionNames[k]] = n
		}
	}
	for k, n := range l.counts[levelDom0] {
		if n != 0 {
			if s.Dom0 == nil {
				s.Dom0 = make(map[string]int64)
			}
			s.Dom0[decisionNames[k]] = n
		}
	}
	return s
}

// DecisionRecorder is the decision-provenance hook handed to elevators
// (via iosched.Params.Decisions) and queue-level instrumentation. It
// tallies into a DecisionLog, increments the registry counter
// sched.<level>.<kind> and, when a tracer is attached, emits an instant
// event (cat "decision") on the recording thread. Every decision is
// counted here and nowhere else.
//
// A nil *DecisionRecorder discards everything; all methods take scalar
// arguments only, so the disabled hot path performs a nil check and
// allocates nothing (pinned at 0 allocs/op in CI).
type DecisionRecorder struct {
	log      *DecisionLog
	tr       *Tracer
	counters [numDecisionKinds]*Counter // nil without a registry
	pid      int64
	tid      int64
	level    uint8
}

// NewDecisionRecorder binds a recorder for one queue level ("vm" or
// "dom0") at the given trace coordinates. With a registry attached it
// registers sched.<level>.<kind> for every kind, so recorders of one level
// share counters. Returns nil — the disabled path — when the sink has no
// decision log, tracer or registry.
func NewDecisionRecorder(s Sink, pid, tid int64, level string) *DecisionRecorder {
	if s.Decisions == nil && s.Trace == nil && s.Metrics == nil {
		return nil
	}
	d := &DecisionRecorder{log: s.Decisions, tr: s.Trace, pid: pid, tid: tid, level: levelVM}
	if level == "dom0" {
		d.level = levelDom0
	}
	if s.Metrics != nil {
		for k, name := range decisionNames {
			d.counters[k] = s.Metrics.Counter("sched." + level + "." + name)
		}
	}
	return d
}

// Record tallies one decision and emits its trace instant.
func (d *DecisionRecorder) Record(at sim.Time, k DecisionKind) {
	if d == nil {
		return
	}
	d.count(k)
	if d.tr != nil {
		d.tr.Instant(d.pid, d.tid, "decision", decisionNames[k], at)
	}
}

// RecordStream is Record with the deciding stream attached to the trace
// instant (which queue got the CFQ slice, which stream anticipation
// armed on).
func (d *DecisionRecorder) RecordStream(at sim.Time, k DecisionKind, stream int64) {
	if d == nil {
		return
	}
	d.count(k)
	if d.tr != nil {
		d.tr.Instant(d.pid, d.tid, "decision", decisionNames[k], at, I("stream", stream))
	}
}

func (d *DecisionRecorder) count(k DecisionKind) {
	if d.log != nil {
		d.log.counts[d.level][k]++
	}
	d.counters[k].Inc()
}
