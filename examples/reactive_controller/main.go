// Reactive controller: the paper's future-work idea made concrete — no
// job knowledge at all. The online controller watches the live Dom0 I/O
// mix, classifies each window's regime, and switches the scheduler pair
// in-run when the regime changes, rate-limited because every switch
// drains the queues.
//
// Compare three ways of running the same sort job:
//
//	static default   (CFQ, CFQ) for the whole job
//	meta-scheduler   profile + Algorithm 1 (needs phase boundaries)
//	online           live regime detection (needs nothing)
//
//	go run ./examples/reactive_controller
package main

import (
	"fmt"
	"os"

	"adaptmr"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reactive_controller:", err)
		os.Exit(1)
	}
}

func main() {
	cfg := adaptmr.DefaultClusterConfig()
	job := adaptmr.SortBenchmark(512 << 20).Job

	static, err := adaptmr.Run(cfg, job, adaptmr.DefaultPair)
	check(err)
	fmt.Printf("static default   %7.1f s\n", static.Duration.Seconds())

	tuned, err := adaptmr.NewTuner(cfg, job).Tune()
	check(err)
	fmt.Printf("meta-scheduler   %7.1f s  %s (offline: %d profiling/search executions)\n",
		tuned.Duration.Seconds(), tuned.Plan, tuned.Evaluations)

	online, err := adaptmr.RunOnline(cfg, job)
	check(err)
	fmt.Printf("online           %7.1f s  (%s -> %s, %d in-run switches, zero offline runs)\n",
		online.Job.Duration.Seconds(), online.StartPairCode, online.FinalPairCode, online.Switches)

	fmt.Println("\nThe online controller trades a little of the meta-scheduler's gain")
	fmt.Println("for zero profiling cost and no dependence on job phase boundaries.")
}
