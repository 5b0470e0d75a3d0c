// Package obs is the zero-dependency observability layer of the simulator:
// a span/event tracer that exports Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) and a metrics registry of counters, gauges
// and fixed-bucket histograms.
//
// Every hook is nil-safe: a nil *Tracer, nil *Registry, nil *Counter etc.
// silently discards the observation, so instrumented code needs no
// conditionals and the disabled path costs a predictable nil check.
// Instrumentation is driven purely by observer hooks the simulated layers
// already expose (block.Queue's OnEnqueue/OnMerge/OnDispatch/OnComplete,
// disk.Disk.OnService, sim.Engine's Observer, the MapReduce runtime's
// phase callbacks), so the layers themselves never import obs.
//
// Trace layout convention: one trace "process" per physical host (plus one
// for the cluster-level MapReduce runtime), one "thread" per VM elevator,
// the Dom0 elevator, the physical disk, and the NIC of each host. The
// Sink.PIDBase offset keeps multiple runs (e.g. every evaluation of a
// tuning search) apart inside one trace file.
package obs

import "fmt"

// Sink bundles the two observation channels threaded through the stack.
// The zero value is fully disabled and costs (almost) nothing.
type Sink struct {
	// Trace receives span/instant events (nil = tracing off).
	Trace *Tracer
	// Metrics receives counter/gauge/histogram updates (nil = off).
	Metrics *Registry
	// PIDBase offsets every trace process id, so traces of multiple runs
	// (tuning evaluations, experiment sweeps) can share one Tracer without
	// colliding.
	PIDBase int64
	// RunLabel, when non-empty, prefixes process names ("[c → a]/host0") —
	// used by the Runner to label each evaluation's section of the trace.
	RunLabel string

	// Journeys, when non-nil, collects per-request journey records (the
	// ns-exact latency decomposition through both queue levels).
	Journeys *JourneyLog
	// Decisions, when non-nil, tallies scheduler decision provenance
	// (deadline expiries, anticipation outcomes, CFQ slices, merges,
	// switch drains) per queue level.
	Decisions *DecisionLog
}

// Enabled reports whether any observation channel is attached.
func (s Sink) Enabled() bool {
	return s.Trace != nil || s.Metrics != nil || s.Journeys != nil || s.Decisions != nil
}

// Private returns the sink one run of a batch records into on its own:
// fresh instruments of every kind s has, with its trace processes at
// PIDBase + idx×1000 and labelled label. Absorb folds it back into s; a
// batch that folds its runs in index order produces the bytes of a serial
// run. With observation off, s comes back unchanged.
func (s Sink) Private(idx int, label string) Sink {
	if !s.Enabled() {
		return s
	}
	p := s
	p.PIDBase += int64(idx) * 1000
	p.RunLabel = label
	if s.Trace != nil {
		p.Trace = NewTracer()
	}
	if s.Metrics != nil {
		p.Metrics = NewRegistry()
	}
	if s.Journeys != nil {
		p.Journeys = NewJourneyLog()
	}
	if s.Decisions != nil {
		p.Decisions = NewDecisionLog()
	}
	return p
}

// Absorb folds a Private sink back into s: its trace, journeys and
// decisions, and m, the snapshot of its registry the caller reports (so
// Registry.Absorb's same-snapshot guard covers a second fold of it).
func (s Sink) Absorb(p Sink, m *Snapshot) {
	s.Trace.Absorb(p.Trace)
	s.Metrics.Absorb(m)
	s.Journeys.Absorb(p.Journeys)
	s.Decisions.Absorb(p.Decisions)
}

// ClusterPID is the trace process holding cluster-wide spans (job phases,
// progress marks).
func (s Sink) ClusterPID() int64 { return s.PIDBase + 1 }

// HostPID is the trace process of physical host i.
func (s Sink) HostPID(host int) int64 { return s.PIDBase + 2 + int64(host) }

// ProcName decorates a process name with the run label, if any.
func (s Sink) ProcName(name string) string {
	if s.RunLabel == "" {
		return name
	}
	return s.RunLabel + "/" + name
}

// Thread ids within a host process. VM elevators use VMTID.
const (
	// TIDJob is the cluster-process thread carrying job/phase spans.
	TIDJob int64 = 1
	// TIDDom0 is the Dom0 (VMM-level) elevator thread.
	TIDDom0 int64 = 1
	// TIDDisk is the physical disk service thread.
	TIDDisk int64 = 2
	// TIDNet is the host NIC thread (outbound transfers).
	TIDNet int64 = 3
)

// VMTID is the guest-elevator thread of host-local VM i.
func VMTID(vm int) int64 { return 10 + 2*int64(vm) }

// VMTaskTID is the MapReduce task thread of host-local VM i.
func VMTaskTID(vm int) int64 { return 11 + 2*int64(vm) }

// HostLabel is the canonical process name for host i.
func HostLabel(i int) string { return fmt.Sprintf("host%d", i) }
