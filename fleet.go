package adaptmr

import (
	"fmt"
	"io"

	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/control"
	"adaptmr/internal/fleet"
	"adaptmr/internal/obs"
)

// ---------------------------------------------------------------------------
// Fleet-scale multi-job simulation
// ---------------------------------------------------------------------------

// FleetScenario describes a fleet-scale run: cells of hosts, a multi-job
// workload with arrival model, and the JobTracker scheduling policy. Load
// one from JSON with LoadFleetScenario/ParseFleetScenario (the schema is
// documented in API.md) or build it in code.
type FleetScenario = fleet.Scenario

// FleetJobSpec is one job template in a scenario (benchmark, size, count,
// weight, priority, queue, optional pinned cell or trace arrivals).
type FleetJobSpec = fleet.JobSpec

// FleetArrivalSpec selects the scenario's arrival model: "immediate",
// "poisson" (seeded, deterministic, invariant to adding other jobs) or
// "trace" (explicit per-instance arrival times).
type FleetArrivalSpec = fleet.ArrivalSpec

// FleetQueueSpec names a capacity-scheduler queue and its share.
type FleetQueueSpec = fleet.QueueSpec

// FleetResult is a completed fleet run: per-job outcomes in (cell,
// admission) order plus the aggregate summary.
type FleetResult = fleet.Result

// FleetJobOutcome is one job's fleet-level lifecycle record.
type FleetJobOutcome = fleet.JobOutcome

// FleetAggregate is the fleet-wide summary (makespan, throughput,
// duration/wait quantiles, concurrency, phase mix).
type FleetAggregate = fleet.Aggregate

// JobTracker scheduling policies accepted in FleetScenario.Policy.
const (
	FleetFIFO     = fleet.PolicyFIFO
	FleetFair     = fleet.PolicyFair
	FleetCapacity = fleet.PolicyCapacity
)

// LoadFleetScenario reads and parses a scenario JSON file.
func LoadFleetScenario(path string) (FleetScenario, error) { return fleet.Load(path) }

// ParseFleetScenario parses scenario JSON (unknown fields rejected).
func ParseFleetScenario(data []byte) (FleetScenario, error) { return fleet.Parse(data) }

// SmokeFleetScenario returns the built-in small multi-job scenario used
// by the CI fleet gate: 2 cells × 2 hosts × 2 VMs, fair-share policy,
// Poisson arrivals over all three paper benchmarks.
func SmokeFleetScenario() FleetScenario { return fleet.SmokeScenario() }

// RunFleet executes a fleet scenario: per-cell JobTracker admission and
// slot scheduling over concurrent jobs, with each cell run to completion
// on its own and cells simulated in parallel (WithParallelism; <= 1 runs
// serially). Output — results, traces, metrics, journeys, decisions — is
// byte-identical at every parallelism setting. WithInvariantChecks
// attaches the runtime correctness harness to every block queue of every
// cell; WithPerfStats fills FleetResult.WallS/EventsPerSec.
func RunFleet(s FleetScenario, opts ...Option) (*FleetResult, error) {
	o := buildOptions(opts)
	var sink obs.Sink
	if o.tracer != nil {
		sink.Trace = o.tracer
	}
	if o.metrics != nil {
		sink.Metrics = o.metrics
	}
	if o.journeys != nil {
		sink.Journeys = o.journeys
	}
	if o.decisions != nil {
		sink.Decisions = o.decisions
	}
	res, err := fleet.Run(s, fleet.Options{
		Parallelism: o.parallelism,
		Obs:         sink,
		Check:       o.check,
		Perf:        o.perf,
		Context:     o.ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("adaptmr: %w", err)
	}
	if err := o.verify(nil); err != nil {
		return nil, err
	}
	return res, nil
}

// FleetOnlineCellStats is one cell's controller activity in a
// RunFleetOnline execution.
type FleetOnlineCellStats struct {
	Cell      int              `json:"cell"`
	StartPair string           `json:"start_pair"`
	FinalPair string           `json:"final_pair"`
	Switches  int              `json:"switches"`
	Windows   int              `json:"windows"`
	Decisions []OnlineDecision `json:"decisions"`
}

// FleetOnlineStats aggregates the per-cell online controllers of a
// RunFleetOnline execution.
type FleetOnlineStats struct {
	Cells    []FleetOnlineCellStats `json:"cells"`
	Switches int                    `json:"switches"`
	Windows  int                    `json:"windows"`
}

// RunFleetOnline is RunFleet with an independent online adaptive
// controller attached to every cell: each controller samples its cell's
// live Dom0 I/O mix and switches the cell's elevator pair in-run through
// the hysteresis gates, with no knowledge of job phase boundaries — the
// regime it sees is whatever the overlapping jobs of that cell compose
// on the shared spindles. WithOnlineControl selects the policy (the
// scenario's Pair stays the boot pair; the policy's StartPair is
// ignored). Deterministic and byte-identical at every WithParallelism
// setting: controllers are engine-confined per cell, and stats report in
// cell order.
func RunFleetOnline(s FleetScenario, opts ...Option) (*FleetResult, *FleetOnlineStats, error) {
	o := buildOptions(opts)
	pol := DefaultOnlinePolicy()
	if o.online != nil {
		pol = *o.online
	}
	var sink obs.Sink
	if o.tracer != nil {
		sink.Trace = o.tracer
	}
	if o.metrics != nil {
		sink.Metrics = o.metrics
	}
	if o.journeys != nil {
		sink.Journeys = o.journeys
	}
	if o.decisions != nil {
		sink.Decisions = o.decisions
	}
	type cellCtl struct {
		ctrl  *control.Controller
		start string
	}
	var ctls []cellCtl // cells are constructed serially, in index order
	res, err := fleet.Run(s, fleet.Options{
		Parallelism: o.parallelism,
		Obs:         sink,
		Check:       o.check,
		Perf:        o.perf,
		Context:     o.ctx,
		OnCell: func(cell int, cl *cluster.Cluster) {
			smp := analyze.NewSampler()
			smp.AttachCluster(cl)
			ctrl := control.New(pol)
			ctrl.Attach(cl, smp)
			ctls = append(ctls, cellCtl{ctrl: ctrl, start: cl.Pair().Code()})
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("adaptmr: %w", err)
	}
	if err := o.verify(nil); err != nil {
		return nil, nil, err
	}
	stats := &FleetOnlineStats{}
	for i, c := range ctls {
		stats.Cells = append(stats.Cells, FleetOnlineCellStats{
			Cell:      i,
			StartPair: c.start,
			FinalPair: c.ctrl.InstalledPair().Code(),
			Switches:  c.ctrl.Switches(),
			Windows:   c.ctrl.Windows(),
			Decisions: c.ctrl.Decisions(),
		})
		stats.Switches += c.ctrl.Switches()
		stats.Windows += c.ctrl.Windows()
	}
	return res, stats, nil
}

// FleetBench condenses a fleet result into the gate summary compared by
// CompareBenches (workload label "fleet:<scenario>").
func FleetBench(res *FleetResult) Bench { return analyze.BenchFromFleet(res) }

// WriteFleetReport renders a fleet result as a markdown report (per-job
// table plus aggregates).
func WriteFleetReport(w io.Writer, res *FleetResult) error {
	return analyze.WriteFleetMarkdown(w, res)
}
