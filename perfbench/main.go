// Command perfbench is adaptmr's benchmark. One invocation runs one named
// workload through the public entry points for a fixed wall-clock budget,
// checks every output against a parallelism-1 reference computed during
// set-up, and prints one JSON result line:
//
//	perfbench --workload paper-tune-sort --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (measured with
// no observation attached). With --trace 1 it carries the per-layer
// metrics instead: CPU and allocation shares folded from runtime/pprof
// profiles, plus simulated per-layer counts gathered through the
// simulator's public hooks in a separate pass. README.md defines every
// metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A workload builds its inputs from a seed, computes a reference, and then
// repeats one unit of work.
type workload struct {
	name  string
	setup func(seed int64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// rep runs one measured repetition through the public entry points
	// and checks its outputs against the reference.
	rep() repResult
	// sim returns the reference's simulated end-to-end outputs.
	sim() simOutputs
	// traced runs the hooks pass (one repetition with journeys, decision
	// log, metrics and chained hooks attached) and returns the simulated
	// per-layer metrics plus any workload-specific per-layer numbers.
	traced(untraced []measured) (map[string]float64, error)
	close()
}

// repResult is one repetition's outcome.
type repResult struct {
	ops    int   // operations attempted (a tuning run, a fleet run, a request)
	failed int   // operations that errored or whose output mismatched
	events int64 // simulation events the repetition executed
	// lat holds per-request latencies (ms) by request kind, for workloads
	// that serve requests.
	lat map[string][]float64
}

// simOutputs are a workload's deterministic simulated results.
type simOutputs struct {
	makespanS float64
	jobP95S   float64
}

var workloads = []workload{
	{name: "paper-tune-sort", setup: setupTune},
	{name: "fleet-mixed", setup: setupFleet},
	{name: "adaptd-closed-loop", setup: setupAdaptd},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "wall-clock seconds of measured repetitions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	out, err := run(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printTable(out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up, measures it, and assembles the metrics the
// trace mode asks for.
func run(w workload, seed int64, budget time.Duration, traced bool) (result, error) {
	inst, setupS, err := setUp(w, seed)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	reps := measure(inst, budget)
	ws := walls(reps)
	fmt.Fprintf(os.Stderr, "%d repetitions, wall min %.4gs median %.4gs max %.4gs\n",
		len(ws), quantile(ws, 0), median(ws), quantile(ws, 1))
	out := result{Metrics: map[string]metric{}}
	for _, r := range reps {
		out.Attempted += r.ops
		out.Failed += r.failed
	}
	if !traced {
		endToEnd(out.Metrics, setupS, reps, inst.sim())
		out.Correct = out.Failed == 0
		return out, nil
	}

	vals, profReps, err := profilePass(inst)
	if err != nil {
		return result{}, err
	}
	for _, r := range profReps {
		out.Attempted += r.ops
		out.Failed += r.failed
	}
	counts, err := inst.traced(reps)
	out.Attempted++
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: hooks pass: %v\n", err)
		out.Failed++
	}
	for k, v := range counts {
		vals[k] = v
	}
	vals["trace.overhead_pct"] = 100 * (median(walls(profReps)) - median(ws)) / median(ws)
	for _, m := range perLayer {
		out.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// Set-up is repeated up to setupRuns times while the set-ups so far have
// taken less than setupBudget; setup_s is their median.
const (
	setupRuns   = 3
	setupBudget = 4 * time.Second
)

// setUp builds the workload (repeatedly, see setupRuns) and returns the
// last instance with the median set-up time in seconds.
func setUp(w workload, seed int64) (instance, float64, error) {
	var inst instance
	var times []float64
	var spent float64
	for len(times) < setupRuns && spent < setupBudget.Seconds() {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return nil, 0, err
		}
		d := time.Since(t0).Seconds()
		times = append(times, d)
		spent += d
	}
	return inst, median(times), nil
}

// measure repeats the workload until budget has elapsed (at least once),
// recording each repetition's wall time, heap allocations and peak live
// heap.
func measure(inst instance, budget time.Duration) []measured {
	heap := startHeapSampler()
	defer heap.stop()
	var reps []measured
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < budget {
		heap.reset()
		a0 := heapAllocs()
		t0 := time.Now()
		r := inst.rep()
		wall := time.Since(t0).Seconds()
		reps = append(reps, measured{repResult: r, wallS: wall, allocs: heapAllocs() - a0, peakMB: heap.peakMB()})
	}
	return reps
}

// measured is a repetition with its host-side measurements.
type measured struct {
	repResult
	wallS  float64
	allocs uint64
	peakMB float64
}

func walls(reps []measured) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wallS
	}
	return out
}

// endToEnd fills the untraced metrics.
func endToEnd(m map[string]metric, setupS float64, reps []measured, s simOutputs) {
	var wall float64
	var events int64
	var allocs uint64
	peaks := make([]float64, len(reps))
	for i, r := range reps {
		wall += r.wallS
		events += r.events
		allocs += r.allocs
		peaks[i] = r.peakMB
	}
	vals := map[string]float64{
		"setup_s":          setupS,
		"wall_s":           median(walls(reps)),
		"events_per_s":     float64(events) / wall,
		"allocs_per_event": float64(allocs) / float64(events),
		"peak_heap_mb":     median(peaks),
		"sim_makespan_s":   s.makespanS,
		"job_p95_s":        s.jobP95S,
	}
	for _, d := range endToEndMetrics {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
}

// printTable writes the metrics, one per line, to standard error.
func printTable(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d, correct %v (GOMAXPROCS %d)\n",
		r.Attempted, r.Failed, r.Correct, runtime.GOMAXPROCS(0))
}
