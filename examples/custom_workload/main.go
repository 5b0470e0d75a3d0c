// Custom workload: model your own MapReduce application by describing its
// data-flow ratios and CPU costs, classify it the way the paper classifies
// benchmarks (light / moderate / heavy disk operations), and let the
// meta-scheduler pick a phase plan for it.
//
// The example models a log-analysis job: a filtering map that keeps ~30% of
// its input (moderate CPU), and an aggregation reduce that emits compact
// summaries.
//
//	go run ./examples/custom_workload
package main

import (
	"fmt"
	"os"

	"adaptmr"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "custom_workload:", err)
		os.Exit(1)
	}
}

func main() {
	job := adaptmr.DefaultJobConfig()
	job.Name = "log-analysis"
	job.InputPerVM = 512 << 20
	job.MapOutputRatio = 0.30    // the filter keeps ~30% of events
	job.ReduceOutputRatio = 0.05 // aggregated counters are small
	job.MapCPUSecPerMB = 0.08    // regex/parse cost per MB of log
	job.SortCPUSecPerMB = 0.008
	job.ReduceCPUSecPerMB = 0.02
	job.ReducersPerVM = 1 // few, large aggregations

	cfg := adaptmr.DefaultClusterConfig()

	fmt.Println("log-analysis on 4x4, 512 MB per node")
	fmt.Println()

	// First: how sensitive is this job to the static pair choice?
	fmt.Println("static pairs:")
	for _, p := range []string{"cc", "ad", "ac", "dd", "nc"} {
		pair, err := adaptmr.ParsePair(p)
		check(err)
		res, err := adaptmr.Run(cfg, job, pair)
		check(err)
		fmt.Printf("  %-26s %6.1f s\n", pair, res.Duration.Seconds())
	}

	// Then: the adaptive plan.
	out, err := adaptmr.NewTuner(cfg, job).Tune()
	check(err)
	fmt.Printf("\nadaptive %s: %.1f s (%.1f%% vs default, %.1f%% vs best single)\n",
		out.Plan, out.Duration.Seconds(),
		100*out.ImprovementOverDefault(), 100*out.ImprovementOverBestSingle())

	// Phase structure explains the choice.
	def, err := adaptmr.Run(cfg, job, adaptmr.DefaultPair)
	check(err)
	fmt.Printf("\nphase structure under the default pair: map %.1fs | shuffle tail %.1fs | reduce %.1fs\n",
		def.MapsDoneAt.Sub(def.Start).Seconds(),
		def.ShuffleDoneAt.Sub(def.MapsDoneAt).Seconds(),
		def.Done.Sub(def.ShuffleDoneAt).Seconds())
	fmt.Println("A filter-heavy job is map-dominated: most of the gain comes from the")
	fmt.Println("phase-1 pair; the meta-scheduler only switches if the reduce tail pays")
	fmt.Println("for the (non-commutative) switch cost.")
}
