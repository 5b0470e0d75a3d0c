package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"adaptmr"
	"adaptmr/internal/cluster"
	"adaptmr/internal/fleet"
)

// fleet-mixed: 4 cells × 4 hosts × 4 VMs under fair-share, with Poisson
// arrivals of sort, wordcount and wordcount-nc jobs sharing the spindles.
const fleetParallelism = 2

type fleetInst struct {
	scen    adaptmr.FleetScenario
	ref     *adaptmr.FleetResult
	refJSON []byte
}

// fleetScenarioJSON generates the scenario from the seed: the arrival
// draws (scenario seed) and the order of the job specs. The job counts and
// sizes are fixed, so every seed runs the same amount of work.
func fleetScenarioJSON(seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	jobs := []adaptmr.FleetJobSpec{
		{ID: "sort", Benchmark: "sort"},
		{ID: "wc", Benchmark: "wordcount"},
		{ID: "wcnc", Benchmark: "wordcount-nc"},
	}
	for i := range jobs {
		jobs[i].InputPerVMMB = 128
		jobs[i].Count = 4
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return json.Marshal(adaptmr.FleetScenario{
		Name:                 "fleet-mixed",
		Seed:                 seed,
		Cells:                4,
		HostsPerCell:         4,
		VMsPerHost:           4,
		Pair:                 "cc",
		Policy:               adaptmr.FleetFair,
		MaxConcurrentPerCell: 2,
		Arrivals:             adaptmr.FleetArrivalSpec{Kind: "poisson", HorizonMS: 10_000},
		Jobs:                 jobs,
	})
}

// setupFleet parses the generated scenario and runs the serial reference.
func setupFleet(seed int64) (instance, error) {
	data, err := fleetScenarioJSON(seed)
	if err != nil {
		return nil, err
	}
	f := &fleetInst{}
	if f.scen, err = adaptmr.ParseFleetScenario(data); err != nil {
		return nil, err
	}
	if f.ref, err = adaptmr.RunFleet(f.scen, adaptmr.WithParallelism(1)); err != nil {
		return nil, err
	}
	if f.refJSON, err = json.Marshal(f.ref); err != nil {
		return nil, err
	}
	return f, nil
}

// rep runs the fleet with cells simulated in parallel; every job outcome,
// the aggregate and the event count must match the serial reference.
func (f *fleetInst) rep() repResult {
	res, err := adaptmr.RunFleet(f.scen, adaptmr.WithParallelism(fleetParallelism))
	r := repResult{ops: 1, events: f.ref.SimEvents}
	if err := f.check(res, err); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fleet-mixed:", err)
		r.failed = 1
	}
	return r
}

func (f *fleetInst) check(res *adaptmr.FleetResult, err error) error {
	if err != nil {
		return err
	}
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, f.refJSON) {
		return fmt.Errorf("fleet result differs from the serial reference")
	}
	return nil
}

func (f *fleetInst) sim() simOutputs {
	return simOutputs{makespanS: f.ref.Agg.MakespanS, jobP95S: f.ref.Agg.P95DurationS}
}

// traced runs the fleet once on the engine RunFleet wraps, with journeys,
// decisions, metrics and chained hooks attached to every cell.
func (f *fleetInst) traced([]measured) (map[string]float64, error) {
	sinks := newSinks()
	var hooks hookSet
	res, err := fleet.Run(f.scen, fleet.Options{
		Parallelism: fleetParallelism,
		Obs:         sinks,
		OnCell:      func(_ int, cl *cluster.Cluster) { hooks.attach(cl) },
	})
	if err := f.check(res, err); err != nil {
		return nil, err
	}
	h := hooks.total()
	if n := sinks.Metrics.Snapshot().Counters["net.flows"]; n != h.flows {
		return nil, fmt.Errorf("chained flow hook saw %d flows, metrics %d", h.flows, n)
	}
	out := map[string]float64{}
	simLayers(out, h, sinks.Journeys.Summary(), sinks.Decisions)
	for _, j := range res.Jobs {
		out["mapred.map_s"] += j.MapS
		out["mapred.shuffle_s"] += j.ShuffleS
		out["mapred.reduce_s"] += j.ReduceS
	}
	out["fleet.mean_wait_s"] = res.Agg.MeanWaitS
	out["fleet.peak_concurrency"] = float64(res.Agg.PeakConcurrency)
	out["fleet.overlap_pct"] = res.Agg.MeanOverlapPct
	return out, nil
}

func (f *fleetInst) close() {}
