package adaptmr

import (
	"fmt"
	"io"
	"sync"

	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/control"
	"adaptmr/internal/fleet"
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
// slot scheduling over concurrent jobs, with cells simulated in parallel
// (WithParallelism; 1 runs serially). Each worker builds a cell right
// before running it to completion and releases its cluster when it
// finishes, so memory grows with the parallelism, not the cell count.
// Output — results, traces, metrics, journeys, decisions — is
// byte-identical at every parallelism setting. WithInvariantChecks
// attaches the runtime correctness harness to every block queue of every
// cell; WithPerfStats fills FleetResult.WallS/EventsPerSec (cell
// construction included); WithContext bounds every cell.
func RunFleet(s FleetScenario, opts ...Option) (*FleetResult, error) {
	return runFleet(s, buildOptions(opts), nil)
}

// RunFleetOnline is RunFleet with an independent online adaptive
// controller attached to every cell: each controller samples its cell's
// live Dom0 I/O mix and switches the cell's elevator pair in-run through
// the hysteresis gates, with no knowledge of job phase boundaries — the
// regime it sees is whatever the overlapping jobs of that cell compose
// on the shared spindles. It returns each cell's controller outcome, in
// cell order. WithOnlineControl selects the policy (the scenario's Pair
// stays the boot pair; the policy's StartPair is ignored). Each
// controller is attached on its cell's worker right before the cell
// runs, and only its outcome outlives the cell. Deterministic and
// byte-identical at every WithParallelism setting: controllers are
// engine-confined per cell.
func RunFleetOnline(s FleetScenario, opts ...Option) (*FleetResult, []OnlineOutcome, error) {
	return runFleetOnline(s, buildOptions(opts), nil)
}

// runFleetOnline is RunFleetOnline; onCell, when non-nil, runs on each
// cell's worker after the cell's controller attached.
func runFleetOnline(s FleetScenario, o options, onCell func(cell int)) (*FleetResult, []OnlineOutcome, error) {
	var mu sync.Mutex // cells are built on their workers, concurrently
	ctls := map[int]*control.Controller{}
	res, err := runFleet(s, o, func(cell int, cl *cluster.Cluster) {
		c, _ := control.AttachCluster(cl, o.online)
		mu.Lock()
		ctls[cell] = c
		mu.Unlock()
		if onCell != nil {
			onCell(cell)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]OnlineOutcome, res.Cells)
	for i := range out {
		out[i] = ctls[i].Outcome()
	}
	return res, out, nil
}

// runFleet is the one fleet run behind RunFleet and RunFleetOnline:
// onCell, when non-nil, extends each cell on its worker right before the
// cell runs.
func runFleet(s FleetScenario, o options, onCell func(int, *cluster.Cluster)) (*FleetResult, error) {
	res, err := fleet.Run(s, fleet.Options{
		Parallelism: o.parallelism,
		Obs:         o.sink,
		Check:       o.check,
		Perf:        o.perf,
		Context:     o.ctx,
		OnCell:      onCell,
	})
	if err != nil {
		return nil, fmt.Errorf("adaptmr: %w", err)
	}
	if err := o.verify(nil); err != nil {
		return nil, err
	}
	return res, nil
}

// FleetBench condenses a fleet result into the gate summary compared by
// CompareBenches (workload label "fleet:<scenario>").
func FleetBench(res *FleetResult) Bench { return analyze.BenchFromFleet(res) }

// WriteFleetReport renders a fleet result as a markdown report (per-job
// table plus aggregates).
func WriteFleetReport(w io.Writer, res *FleetResult) error {
	return analyze.WriteFleetMarkdown(w, res)
}
