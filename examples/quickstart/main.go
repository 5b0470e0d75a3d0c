// Quickstart: run the paper's sort benchmark on the simulated 4×4
// virtualized Hadoop testbed under the default (CFQ, CFQ) scheduler pair,
// then under the paper's best static pair, and print the comparison.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"adaptmr"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func main() {
	cfg := adaptmr.DefaultClusterConfig() // 4 hosts × 4 VMs, 1 SATA disk each
	job := adaptmr.SortBenchmark(512 << 20).Job

	fmt.Println("sort, 512 MB per datanode, 4 hosts x 4 VMs")
	fmt.Println()

	def, err := adaptmr.Run(cfg, job, adaptmr.DefaultPair)
	check(err)
	fmt.Printf("%-26s %6.1f s  (map %5.1f | shuffle tail %4.1f | reduce %5.1f)\n",
		adaptmr.DefaultPair, def.Duration.Seconds(),
		def.MapsDoneAt.Sub(def.Start).Seconds(),
		def.ShuffleDoneAt.Sub(def.MapsDoneAt).Seconds(),
		def.Done.Sub(def.ShuffleDoneAt).Seconds())

	best, err := adaptmr.ParsePair("(anticipatory, deadline)")
	check(err)
	res, err := adaptmr.Run(cfg, job, best)
	check(err)
	fmt.Printf("%-26s %6.1f s  (map %5.1f | shuffle tail %4.1f | reduce %5.1f)\n",
		best, res.Duration.Seconds(),
		res.MapsDoneAt.Sub(res.Start).Seconds(),
		res.ShuffleDoneAt.Sub(res.MapsDoneAt).Seconds(),
		res.Done.Sub(res.ShuffleDoneAt).Seconds())

	gain := 100 * (def.Duration.Seconds() - res.Duration.Seconds()) / def.Duration.Seconds()
	fmt.Printf("\n(Anticipatory, Deadline) beats the default by %.1f%% — the paper's\n", gain)
	fmt.Println("Table I effect. Run examples/adaptive_sort to see the meta-scheduler")
	fmt.Println("profile all 16 pairs and search for a phase plan: on this sort it")
	fmt.Println("keeps one pair, the best static one, because no mid-job switch pays")
	fmt.Println(`for itself here (EXPERIMENTS.md, "On the compression").`)
}
