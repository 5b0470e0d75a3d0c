// Package fleet simulates a whole MapReduce fleet instead of the paper's
// single job: a workload of many jobs (mixes of the benchmark suite)
// arrives over time at a JobTracker, which admits them onto shared
// virtual clusters and arbitrates map/reduce slots across the jobs that
// run concurrently — under FIFO, fair-share or capacity scheduling — so
// multi-tenant contention on the Dom0 disk queues can be studied at
// hundreds of hosts and dozens of jobs.
//
// The fleet is partitioned into independent cells (shards): each cell is
// a full cluster.Cluster with its own event engine, network and HDFS,
// so cells carry no cross-shard events: each cell runs to completion on
// its own, on up to Parallelism goroutines. Observation folds in cell
// order, so traces, metrics and results are byte-identical at every
// parallelism.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/sim"
	"adaptmr/internal/workloads"
)

// Scheduling policy names accepted in Scenario.Policy.
const (
	PolicyFIFO     = "fifo"
	PolicyFair     = "fair"
	PolicyCapacity = "capacity"
)

// ArrivalSpec selects how job arrival times are generated.
type ArrivalSpec struct {
	// Kind is "immediate" (every job arrives at t=0, the default),
	// "poisson" (a Poisson process sampled by uniform order statistics:
	// each job draws Uniform[0, horizon) from its own stream), or
	// "trace" (explicit per-instance times from JobSpec.ArriveMS).
	Kind string `json:"kind"`
	// RatePerMin is the Poisson arrival rate; the horizon defaults to
	// jobs/rate so the expected count over the window equals the
	// scenario's job count.
	RatePerMin float64 `json:"rate_per_min,omitempty"`
	// HorizonMS overrides the arrival window. Pinning it keeps every
	// job's arrival time invariant when jobs are added to the scenario.
	HorizonMS int64 `json:"horizon_ms,omitempty"`
}

// QueueSpec is one capacity-scheduler queue: Share is its guaranteed
// fraction of the fleet's slots (shares are normalised; unused capacity
// is lent elastically to busy queues).
type QueueSpec struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
}

// JobSpec describes one group of identical job submissions.
type JobSpec struct {
	// ID is the stable key the instances' RNG streams derive from (and
	// the prefix of their job names). Defaults to Benchmark; must be
	// unique across specs. Keep IDs stable to keep arrival draws stable.
	ID string `json:"id,omitempty"`
	// Benchmark names the workload preset: "sort", "wordcount" or
	// "wordcount-nc".
	Benchmark string `json:"benchmark"`
	// InputPerVMMB is the HDFS input placed per datanode VM, in MB.
	InputPerVMMB int64 `json:"input_per_vm_mb"`
	// Count is how many instances to submit (default 1).
	Count int `json:"count,omitempty"`
	// Weight is the fair-share weight (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Priority orders FIFO admission and dispatch (higher first).
	Priority int `json:"priority,omitempty"`
	// Queue names the capacity-scheduler queue (required when the
	// scenario policy is "capacity").
	Queue string `json:"queue,omitempty"`
	// Cell pins every instance to one cell (0-based). -1 (the default)
	// spreads instances round-robin across cells.
	Cell *int `json:"cell,omitempty"`
	// ArriveMS gives explicit arrival times (one per instance) when the
	// scenario's arrival kind is "trace".
	ArriveMS []int64 `json:"arrive_ms,omitempty"`
}

// Scenario is the loadable description of one fleet simulation.
type Scenario struct {
	Name string `json:"name"`
	// Seed feeds every derived stream: per-cell engine seeds and per-job
	// arrival draws.
	Seed int64 `json:"seed"`

	// Cells is the shard count; HostsPerCell × VMsPerHost sizes each
	// cell's cluster. Fleet totals are Cells × HostsPerCell hosts.
	Cells        int `json:"cells"`
	HostsPerCell int `json:"hosts_per_cell"`
	VMsPerHost   int `json:"vms_per_host"`

	// Pair is the (VMM, VM) disk-scheduler pair installed fleet-wide,
	// in iosched.ParsePair syntax (e.g. "cc", "ad").
	Pair string `json:"pair"`

	// Policy selects the JobTracker's slot scheduler: "fifo", "fair" or
	// "capacity".
	Policy string `json:"policy"`

	// MaxConcurrentPerCell caps how many admitted jobs run at once in a
	// cell; arrivals beyond it wait in the admission queue. 0 = no cap.
	MaxConcurrentPerCell int `json:"max_concurrent_per_cell,omitempty"`

	// MapSlotsPerVM / ReduceSlotsPerVM are the fleet-wide tasktracker
	// slot capacities the JobTracker arbitrates (default 2 each).
	MapSlotsPerVM    int `json:"map_slots_per_vm,omitempty"`
	ReduceSlotsPerVM int `json:"reduce_slots_per_vm,omitempty"`

	Arrivals ArrivalSpec `json:"arrivals"`
	Queues   []QueueSpec `json:"queues,omitempty"`
	Jobs     []JobSpec   `json:"jobs"`
}

// Load reads and validates a scenario JSON file.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("fleet: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates scenario JSON. Unknown fields are errors,
// so schema typos surface instead of silently meaning "default".
func Parse(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("fleet: parse scenario: %w", err)
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// withDefaults fills unset optional fields.
func (s Scenario) withDefaults() Scenario {
	if s.Cells == 0 {
		s.Cells = 1
	}
	if s.Pair == "" {
		s.Pair = "cc"
	}
	if s.Policy == "" {
		s.Policy = PolicyFIFO
	}
	if s.MapSlotsPerVM == 0 {
		s.MapSlotsPerVM = 2
	}
	if s.ReduceSlotsPerVM == 0 {
		s.ReduceSlotsPerVM = 2
	}
	if s.Arrivals.Kind == "" {
		s.Arrivals.Kind = "immediate"
	}
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if j.ID == "" {
			j.ID = j.Benchmark
		}
		if j.Count == 0 {
			j.Count = 1
		}
		if j.Weight == 0 {
			j.Weight = 1
		}
	}
	return s
}

// Validate reports the first structural error in the scenario, including
// a mapred.Config validation of every expanded job instance — degenerate
// job settings are rejected here, before anything is simulated.
func (s Scenario) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("fleet: scenario name must be non-empty")
	case s.Cells < 1:
		return fmt.Errorf("fleet: Cells must be >= 1, got %d", s.Cells)
	case s.HostsPerCell < 1 || s.VMsPerHost < 1:
		return fmt.Errorf("fleet: need at least one host per cell and one VM per host, got %d×%d", s.HostsPerCell, s.VMsPerHost)
	case s.MapSlotsPerVM < 1 || s.ReduceSlotsPerVM < 1:
		return fmt.Errorf("fleet: per-VM slot capacities must be >= 1, got map=%d reduce=%d", s.MapSlotsPerVM, s.ReduceSlotsPerVM)
	case s.MaxConcurrentPerCell < 0:
		return fmt.Errorf("fleet: MaxConcurrentPerCell must be >= 0, got %d", s.MaxConcurrentPerCell)
	case len(s.Jobs) == 0:
		return fmt.Errorf("fleet: scenario has no jobs")
	}
	if _, err := iosched.ParsePair(s.Pair); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	switch s.Policy {
	case PolicyFIFO, PolicyFair, PolicyCapacity:
	default:
		return fmt.Errorf("fleet: unknown policy %q (want fifo, fair or capacity)", s.Policy)
	}
	switch s.Arrivals.Kind {
	case "immediate", "trace":
	case "poisson":
		if s.Arrivals.RatePerMin <= 0 && s.Arrivals.HorizonMS <= 0 {
			return fmt.Errorf("fleet: poisson arrivals need rate_per_min > 0 or horizon_ms > 0")
		}
	default:
		return fmt.Errorf("fleet: unknown arrival kind %q (want immediate, poisson or trace)", s.Arrivals.Kind)
	}
	queues := map[string]bool{}
	if s.Policy == PolicyCapacity {
		if len(s.Queues) == 0 {
			return fmt.Errorf("fleet: capacity policy needs at least one queue")
		}
		for _, q := range s.Queues {
			switch {
			case q.Name == "":
				return fmt.Errorf("fleet: queue name must be non-empty")
			case q.Share <= 0:
				return fmt.Errorf("fleet: queue %q share must be positive, got %g", q.Name, q.Share)
			case queues[q.Name]:
				return fmt.Errorf("fleet: duplicate queue %q", q.Name)
			}
			queues[q.Name] = true
		}
	}
	ids := map[string]bool{}
	for i, j := range s.Jobs {
		if ids[j.ID] {
			return fmt.Errorf("fleet: jobs[%d]: duplicate job id %q (set distinct ids)", i, j.ID)
		}
		ids[j.ID] = true
		switch {
		case j.Count < 1:
			return fmt.Errorf("fleet: jobs[%d] %q: count must be >= 1, got %d", i, j.ID, j.Count)
		case j.InputPerVMMB < 1:
			return fmt.Errorf("fleet: jobs[%d] %q: input_per_vm_mb must be >= 1, got %d", i, j.ID, j.InputPerVMMB)
		case j.Weight <= 0:
			return fmt.Errorf("fleet: jobs[%d] %q: weight must be positive, got %g", i, j.ID, j.Weight)
		}
		if j.Cell != nil && (*j.Cell < 0 || *j.Cell >= s.Cells) {
			return fmt.Errorf("fleet: jobs[%d] %q: cell %d out of range [0, %d)", i, j.ID, *j.Cell, s.Cells)
		}
		if s.Policy == PolicyCapacity && !queues[j.Queue] {
			return fmt.Errorf("fleet: jobs[%d] %q: unknown queue %q", i, j.ID, j.Queue)
		}
		if s.Arrivals.Kind == "trace" && len(j.ArriveMS) != j.Count {
			return fmt.Errorf("fleet: jobs[%d] %q: trace arrivals need %d arrive_ms entries, got %d", i, j.ID, j.Count, len(j.ArriveMS))
		}
		bench, err := workloads.ByName(j.Benchmark, j.InputPerVMMB<<20)
		if err != nil {
			return fmt.Errorf("fleet: jobs[%d] %q: %w", i, j.ID, err)
		}
		cfg := bench.Job
		cfg.Name = j.ID
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("fleet: jobs[%d] %q: %w", i, j.ID, err)
		}
	}
	return nil
}

// TotalHosts returns Cells × HostsPerCell.
func (s Scenario) TotalHosts() int { return s.Cells * s.HostsPerCell }

// TotalVMs returns the fleet VM count.
func (s Scenario) TotalVMs() int { return s.TotalHosts() * s.VMsPerHost }

// TotalJobs returns the number of job instances the scenario submits.
func (s Scenario) TotalJobs() int {
	n := 0
	for _, j := range s.Jobs {
		n += j.Count
	}
	return n
}

// instance is one expanded job submission.
type instance struct {
	id      string // "<spec id>#<n>"
	specIdx int
	bench   string
	cfg     mapred.Config
	class   workloads.Class
	weight  float64
	prio    int
	queue   string
	cell    int
	arrive  sim.Time
}

// horizon returns the arrival window of a Poisson scenario.
func (s Scenario) horizon() sim.Duration {
	if s.Arrivals.HorizonMS > 0 {
		return sim.Duration(s.Arrivals.HorizonMS) * sim.Millisecond
	}
	mins := float64(s.TotalJobs()) / s.Arrivals.RatePerMin
	return sim.Duration(mins * 60 * float64(sim.Second))
}

// expand turns the specs into concrete instances with arrival times and
// cell assignments. Arrival draws come from per-instance streams keyed
// by the instance id, so editing or adding one spec never changes
// another instance's draw (a Poisson process conditioned on its count is
// iid uniforms over the window — the order-statistics construction).
func (s Scenario) expand() []instance {
	var out []instance
	rr := 0
	for specIdx, j := range s.Jobs {
		bench, _ := workloads.ByName(j.Benchmark, j.InputPerVMMB<<20)
		for n := 0; n < j.Count; n++ {
			inst := instance{
				id:      fmt.Sprintf("%s#%d", j.ID, n),
				specIdx: specIdx,
				bench:   j.Benchmark,
				cfg:     bench.Job,
				class:   bench.Class,
				weight:  j.Weight,
				prio:    j.Priority,
				queue:   j.Queue,
			}
			inst.cfg.Name = inst.id
			if j.Cell != nil {
				inst.cell = *j.Cell
			} else {
				inst.cell = rr % s.Cells
				rr++
			}
			switch s.Arrivals.Kind {
			case "poisson":
				u := newStream(s.Seed, "arrive/"+inst.id).float64()
				inst.arrive = sim.Time(u * float64(s.horizon()))
			case "trace":
				inst.arrive = sim.Time(j.ArriveMS[n]) * sim.Time(sim.Millisecond)
			}
			out = append(out, inst)
		}
	}
	return out
}

// SmokeScenario is a small built-in multi-job scenario (2 cells × 2
// hosts × 2 VMs, 6 jobs, fair-share, Poisson arrivals) used by the CI
// fleet-smoke job and the "fleet" regression-gate workload.
func SmokeScenario() Scenario {
	s := Scenario{
		Name:         "fleet-smoke",
		Seed:         7,
		Cells:        2,
		HostsPerCell: 2,
		VMsPerHost:   2,
		Pair:         "cc",
		Policy:       PolicyFair,
		Arrivals:     ArrivalSpec{Kind: "poisson", RatePerMin: 6, HorizonMS: 60_000},
		Jobs: []JobSpec{
			{ID: "sort", Benchmark: "sort", InputPerVMMB: 64, Count: 2},
			{ID: "wc", Benchmark: "wordcount", InputPerVMMB: 64, Count: 2, Weight: 2},
			{ID: "wcnc", Benchmark: "wordcount-nc", InputPerVMMB: 64, Count: 2},
		},
	}
	return s.withDefaults()
}
