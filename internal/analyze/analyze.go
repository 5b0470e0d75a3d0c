// Package analyze turns the raw telemetry of internal/obs — in-process
// trace events plus a metrics snapshot — into interpretable run reports:
//
//   - critical-path extraction over the map→shuffle→reduce span DAG with
//     per-layer blame attribution (disk service, elevator queueing, Xen
//     ring forwarding, network, CPU/other),
//   - per-phase breakdown tables (I/O volume, seek behaviour, latency
//     quantiles, elevator-switch stalls) matching the paper's phase
//     decomposition,
//   - fixed-interval timeseries (queue depth, throughput, outstanding
//     requests, disk utilisation) sampled live via the block.Queue and
//     disk.Disk observer hooks,
//   - run comparison / regression gating against a committed baseline.
//
// Everything is computed from the deterministic simulation, so reports for
// a fixed seed are byte-identical across runs and machines — which is what
// makes the CI perf gate possible.
package analyze

import (
	"fmt"

	"adaptmr/internal/obs"
	"adaptmr/internal/obs/perfstat"
)

// Blame layer names, in attribution priority order (see criticalpath.go).
const (
	LayerDisk     = "disk"     // physical disk busy servicing requests
	LayerElevator = "elevator" // requests waiting in a VM or Dom0 elevator
	LayerXen      = "xen"      // blkfront/blkback ring forwarding residue
	LayerNet      = "net"      // network flows touching the critical host
	LayerCPU      = "cpu"      // remainder: computation and idle waits
)

// Layers lists the blame layers in attribution priority order.
func Layers() []string {
	return []string{LayerDisk, LayerElevator, LayerXen, LayerNet, LayerCPU}
}

// Options parameterises Build and labels the resulting report's bench
// summary with the run configuration (so gates refuse to compare runs of
// different workloads or testbeds).
type Options struct {
	// PIDBase must match the obs.Sink the trace was recorded with
	// (0 for a standalone run).
	PIDBase int64

	// Run configuration labels, embedded into Report.Bench.
	Workload string
	Hosts    int
	VMs      int
	InputMB  int64
	Seed     int64
	Pair     string

	// TimeseriesPoints caps the number of fixed-interval samples
	// (default 160). The interval is derived from the makespan.
	TimeseriesPoints int

	// Perf, when non-nil, embeds engine self-telemetry into the report's
	// bench summary (schema v2 perf dimensions). Leave nil for
	// byte-deterministic reports: wall-clock values differ across runs.
	Perf *perfstat.Stat

	// Journeys and Decisions, when non-nil, are the run's journey and
	// decision logs; each adds its explain section to the report.
	Journeys  *obs.JourneyLog
	Decisions *obs.DecisionLog
}

// Report is the full analysis artefact of one run. An explain run adds
// the request-journey and scheduler-decision sections, which answer "why
// did this pair win this phase". It marshals to deterministic JSON
// (encoding/json sorts map keys) and renders to Markdown or one
// self-contained HTML page.
type Report struct {
	Schema string  `json:"schema"`
	Bench  Bench   `json:"bench"`
	Job    JobInfo `json:"job"`

	Critical CriticalPath `json:"critical_path"`
	Phases   []PhaseStats `json:"phases"`
	Totals   Totals       `json:"totals"`

	// Latency carries whole-run latency quantile estimates per level,
	// interpolated from the metrics registry's histogram buckets.
	Latency map[string]LatencyQuantiles `json:"latency"`

	Timeseries *Timeseries `json:"timeseries,omitempty"`

	Journeys  *JourneyAnalysis  `json:"journeys,omitempty"`
	Decisions *DecisionAnalysis `json:"decisions,omitempty"`
}

// JobInfo summarises the analyzed job.
type JobInfo struct {
	Name      string  `json:"name"`
	StartS    float64 `json:"start_s"`
	MakespanS float64 `json:"makespan_s"`
	Maps      int     `json:"maps"`
	Reduces   int     `json:"reduces"`
}

// LatencyQuantiles is a set of histogram-interpolated latency estimates.
type LatencyQuantiles struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// Totals aggregates whole-run counters out of the metrics snapshot.
type Totals struct {
	SimEvents     int64   `json:"sim_events"`
	VMRequests    int64   `json:"vm_requests"`
	VMMB          float64 `json:"vm_mb"`
	Dom0Requests  int64   `json:"dom0_requests"`
	Dom0MB        float64 `json:"dom0_mb"`
	MergedVM      int64   `json:"merged_vm"`
	MergedDom0    int64   `json:"merged_dom0"`
	NetFlows      int64   `json:"net_flows"`
	NetMB         float64 `json:"net_mb"`
	Switches      int64   `json:"switches"`
	SwitchStallS  float64 `json:"switch_stall_s"`
	SwitchBacklog int64   `json:"switch_backlog"`
	PeakDepthVM   float64 `json:"peak_depth_vm"`
	PeakDepthDom0 float64 `json:"peak_depth_dom0"`
}

// Build analyzes one traced run. tr must contain exactly one job; snap may
// be nil (totals and latency tables are then empty); smp may be nil (no
// timeseries section). The trace is parsed once, and the explain sections
// are filled only for the logs opts carries.
func Build(tr *obs.Tracer, snap *obs.Snapshot, smp *Sampler, opts Options) (*Report, error) {
	m, err := parseModel(tr, opts.PIDBase)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema: reportSchema,
		Job: JobInfo{
			Name:      m.jobName,
			StartS:    m.start.Seconds(),
			MakespanS: m.end.Sub(m.start).Seconds(),
			Maps:      m.maps,
			Reduces:   m.reduces,
		},
		Latency: map[string]LatencyQuantiles{},
	}
	rep.Critical = criticalPath(m)
	rep.Phases = phaseBreakdown(m)
	if snap != nil {
		rep.Totals = totalsFrom(snap)
		for _, level := range []string{"vm", "dom0"} {
			h, ok := snap.Histograms["io."+level+".latency_ms"]
			if !ok {
				continue
			}
			rep.Latency[level] = LatencyQuantiles{
				Count: h.Count,
				P50Ms: h.Quantile(0.50),
				P95Ms: h.Quantile(0.95),
				P99Ms: h.Quantile(0.99),
			}
		}
	}
	if smp != nil {
		points := opts.TimeseriesPoints
		if points <= 0 {
			points = 160
		}
		ts := smp.Finalize(m.start, m.end, points)
		rep.Timeseries = &ts
	}
	if opts.Journeys != nil {
		rep.Journeys = journeyAnalysis(m, opts.Journeys)
	}
	if opts.Decisions != nil {
		rep.Decisions = decisionAnalysis(m, tr, opts.Decisions)
	}
	rep.Bench = benchFrom(rep, opts)
	return rep, nil
}

const reportSchema = "adaptmr-report/v1"

// totalsFrom reads the whole-run totals out of a metrics snapshot. Merges
// and switches come from the decision recorders' sched.<level>.<kind>
// counters, the only place they are counted.
func totalsFrom(s *obs.Snapshot) Totals {
	const mb = 1 << 20
	sched := func(level, kind string) int64 { return s.Counters["sched."+level+"."+kind] }
	return Totals{
		SimEvents:     s.Counters["sim.events"],
		VMRequests:    s.Counters["io.vm.requests"],
		VMMB:          float64(s.Counters["io.vm.bytes"]) / mb,
		Dom0Requests:  s.Counters["io.dom0.requests"],
		Dom0MB:        float64(s.Counters["io.dom0.bytes"]) / mb,
		MergedVM:      sched("vm", "merge.front") + sched("vm", "merge.back"),
		MergedDom0:    sched("dom0", "merge.front") + sched("dom0", "merge.back"),
		NetFlows:      s.Counters["net.flows"],
		NetMB:         float64(s.Counters["net.bytes"]) / mb,
		Switches:      sched("vm", "switch.end") + sched("dom0", "switch.end"),
		SwitchStallS:  s.Gauges["switch.stall_ms"] / 1000,
		SwitchBacklog: s.Counters["switch.backlog"],
		PeakDepthVM:   s.Gauges["io.vm.peak_depth"],
		PeakDepthDom0: s.Gauges["io.dom0.peak_depth"],
	}
}

// round6 quantises a float to 6 decimal places, keeping JSON and rendered
// output free of 17-digit float noise while remaining deterministic.
func round6(v float64) float64 {
	const p = 1e6
	if v < 0 {
		return float64(int64(v*p-0.5)) / p
	}
	return float64(int64(v*p+0.5)) / p
}

func fmtErr(format string, args ...any) error { return fmt.Errorf("analyze: "+format, args...) }
