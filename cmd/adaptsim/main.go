// Command adaptsim runs a single simulated MapReduce job — under a fixed
// scheduler pair, an explicit phase plan, or the adaptive meta-scheduler —
// and reports timings.
//
// Examples:
//
//	adaptsim -bench sort -pair cfq,cfq
//	adaptsim -bench sort -plan "ad|ca"           # explicit two-phase plan
//	adaptsim -bench wordcount -adaptive          # run the meta-scheduler
//	adaptsim -bench sort -online                 # the online controller
//	adaptsim -bench sort -hosts 6 -vms 4 -input 1024 -adaptive
//	adaptsim -bench sort -trace trace.json -metrics metrics.csv
//	adaptsim -fleet scenario.json -check         # multi-job fleet scenario
//	adaptsim -fleet smoke -fleet-report fleet.md # built-in smoke scenario
//
// -fleet runs a multi-job fleet scenario (JSON schema in API.md; the
// literal "smoke" selects the built-in smoke scenario): per-cell
// JobTracker admission and slot scheduling across concurrent jobs, cells
// simulated in parallel (-parallel) with byte-identical output.
// -fleet-report writes the markdown fleet report; -fleet-json the full
// result JSON.
//
// -trace writes a Chrome trace-event JSON file (load it in Perfetto or
// chrome://tracing); -metrics writes a metrics snapshot, with the format
// picked by -metrics-format (json, csv, prom — Prometheus text
// exposition — or auto by extension). -cpuprofile
// and -memprofile write pprof self-profiles of the simulator.
//
// -parallel N fans the tuner's independent evaluations across N workers
// (0 = GOMAXPROCS) with byte-identical output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"adaptmr"
	"adaptmr/internal/cliutil"
	"adaptmr/internal/sim"
	"adaptmr/internal/workloads"
)

// logger carries diagnostics to stderr (configured by -log); results
// stay on stdout.
var logger = slog.Default()

func fail(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

func main() {
	bench := flag.String("bench", "sort", "workload: sort, wordcount, wordcount-nc")
	fleetArg := flag.String("fleet", "", "run a multi-job fleet scenario from this JSON file ('smoke' = built-in)")
	fleetReport := flag.String("fleet-report", "", "write the markdown fleet report here (with -fleet)")
	fleetJSON := flag.String("fleet-json", "", "write the full fleet result JSON here (with -fleet)")
	pairArg := flag.String("pair", "cc", "scheduler pair for a single run (code or long form)")
	planArg := flag.String("plan", "", "explicit phase plan, pair codes joined by '|' (e.g. ad|ca)")
	adaptive := flag.Bool("adaptive", false, "run the adaptive meta-scheduler instead of one pair")
	online := flag.Bool("online", false, "run under the online adaptive controller (live phase classification, in-run switching)")
	onlineWindow := flag.Int64("online-window", 0, "online controller sampling window in ms (0 = policy default)")
	onlineDwell := flag.Int64("online-dwell", 0, "online controller minimum dwell between switches in ms (0 = policy default)")
	onlineStable := flag.Int("online-stable", 0, "online controller stable windows before a switch (0 = policy default)")
	onlineBudget := flag.Float64("online-budget", 0, "online controller switch-cost budget as a fraction of dwell (0 = policy default)")
	onlineJSON := flag.String("online-json", "", "write the full online result JSON here (with -online)")
	hosts := flag.Int("hosts", 4, "physical nodes")
	vms := flag.Int("vms", 4, "VMs per node")
	inputMB := flag.Int64("input", 512, "input data per datanode VM, in MB")
	seed := flag.Int64("seed", 1, "simulation seed")
	phases := flag.Int("phases", 2, "phase scheme for plans and tuning (2 or 3)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable)")
	metricsOut := cliutil.BindMetricsFlags(flag.CommandLine)
	parallel := cliutil.BindParallelFlag(flag.CommandLine)
	checkInv := cliutil.BindCheckFlag(flag.CommandLine)
	prof := cliutil.BindProfileFlags(flag.CommandLine)
	logFlag := cliutil.BindLogFlag(flag.CommandLine)
	flag.Parse()

	l, err := logFlag.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptsim:", err)
		os.Exit(1)
	}
	logger = l

	if err := prof.Start(); err != nil {
		fail(err)
	}

	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = *hosts
	cfg.VMsPerHost = *vms
	cfg.Seed = *seed

	var opts []adaptmr.Option
	var tracer *adaptmr.Tracer
	if *tracePath != "" {
		tracer = adaptmr.NewTracer()
		opts = append(opts, adaptmr.WithTracer(tracer))
	}
	var metrics *adaptmr.Metrics
	if metricsOut.Enabled() {
		metrics = adaptmr.NewMetrics()
		opts = append(opts, adaptmr.WithMetrics(metrics))
	}
	opts = append(opts, adaptmr.WithParallelism(*parallel))
	if *checkInv {
		opts = append(opts, adaptmr.WithInvariantChecks())
	}

	wl, err := workloads.ByName(*bench, *inputMB<<20)
	if err != nil {
		fail(err)
	}

	scheme := adaptmr.TwoPhases
	if *phases == 3 {
		scheme = adaptmr.ThreePhases
	} else if *phases != 2 {
		fail(fmt.Errorf("phases must be 2 or 3"))
	}

	switch {
	case *fleetArg != "":
		var scen adaptmr.FleetScenario
		if *fleetArg == "smoke" {
			scen = adaptmr.SmokeFleetScenario()
		} else {
			s, err := adaptmr.LoadFleetScenario(*fleetArg)
			if err != nil {
				fail(err)
			}
			scen = s
		}
		res, err := adaptmr.RunFleet(scen, opts...)
		if err != nil {
			fail(err)
		}
		a := res.Agg
		fmt.Printf("fleet %s: %d jobs on %d cells (%d hosts, %d VMs), policy %s, pair %s\n",
			res.Scenario, a.Jobs, res.Cells, res.Hosts, res.VMs, res.Policy, res.Pair)
		fmt.Printf("  makespan %.1fs | %.1f jobs/hour | duration p50 %.1fs p95 %.1fs\n",
			a.MakespanS, a.ThroughputJobsPerHour, a.P50DurationS, a.P95DurationS)
		fmt.Printf("  wait mean %.1fs max %.1fs | peak concurrency %d | mean overlap %.0f%% | %d events\n",
			a.MeanWaitS, a.MaxWaitS, a.PeakConcurrency, a.MeanOverlapPct, res.SimEvents)
		if *fleetReport != "" {
			f, err := os.Create(*fleetReport)
			if err != nil {
				fail(err)
			}
			if err := adaptmr.WriteFleetReport(f, res); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("fleet report written to %s\n", *fleetReport)
		}
		if *fleetJSON != "" {
			f, err := os.Create(*fleetJSON)
			if err != nil {
				fail(err)
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("fleet result written to %s\n", *fleetJSON)
		}

	case *online:
		pol := adaptmr.DefaultOnlinePolicy()
		if *onlineWindow > 0 {
			pol.Window = sim.Duration(*onlineWindow) * sim.Millisecond
		}
		if *onlineDwell > 0 {
			pol.MinDwell = sim.Duration(*onlineDwell) * sim.Millisecond
		}
		if *onlineStable > 0 {
			pol.StableWindows = *onlineStable
		}
		if *onlineBudget > 0 {
			pol.CostBudget = *onlineBudget
		}
		res, err := adaptmr.RunOnline(cfg, wl.Job, append(opts, adaptmr.WithOnlineControl(pol))...)
		if err != nil {
			fail(err)
		}
		fmt.Printf("online controller on %s: %.1fs (%s -> %s, %d switches over %d windows, stall %.2fs)\n",
			wl.Job.Name, res.Job.Duration.Seconds(), res.StartPairCode, res.FinalPairCode,
			res.Switches, res.Windows, res.SwitchStall.Seconds())
		for _, d := range res.Decisions {
			fmt.Printf("  t=%6.2fs %-5s %s -> %s streak %d cost %.3fs %s\n",
				d.AtS, d.Regime, d.From, d.To, d.Streak, d.CostS, d.Reason)
		}
		printPhases(res.Job)
		if *onlineJSON != "" {
			f, err := os.Create(*onlineJSON)
			if err != nil {
				fail(err)
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("online result written to %s\n", *onlineJSON)
		}

	case *adaptive:
		tuner := adaptmr.NewTuner(cfg, wl.Job, opts...).WithScheme(scheme)
		res, err := tuner.Tune()
		if err != nil {
			fail(err)
		}
		fmt.Printf("workload        %s (%s disk operations)\n", wl.Job.Name, wl.Class)
		fmt.Printf("default  %-40s %8.1fs\n", res.Default.Plan, res.Default.Duration.Seconds())
		fmt.Printf("best-1   %-40s %8.1fs\n", res.BestSingle.Plan, res.BestSingle.Duration.Seconds())
		fmt.Printf("adaptive %-40s %8.1fs\n", res.Plan, res.Duration.Seconds())
		fmt.Printf("improvement: %.1f%% vs default, %.1f%% vs best single (%d evaluations)\n",
			100*res.ImprovementOverDefault(), 100*res.ImprovementOverBestSingle(), res.Evaluations)

	case *planArg != "":
		codes := strings.Split(*planArg, "|")
		if len(codes) != scheme.Phases() {
			fail(fmt.Errorf("plan needs %d pairs, got %d", scheme.Phases(), len(codes)))
		}
		var pairs []adaptmr.Pair
		for _, c := range codes {
			p, err := adaptmr.ParsePair(c)
			if err != nil {
				fail(err)
			}
			pairs = append(pairs, p)
		}
		tuner := adaptmr.NewTuner(cfg, wl.Job, opts...).WithScheme(scheme)
		res, err := tuner.RunPlan(adaptmr.NewPlan(scheme, pairs...))
		if err != nil {
			fail(err)
		}
		fmt.Printf("plan %s: %.1fs (switch stall %.1fs)\n",
			res.Plan, res.Duration.Seconds(), res.SwitchStall.Seconds())
		printPhases(res.Job)

	default:
		p, err := adaptmr.ParsePair(*pairArg)
		if err != nil {
			fail(err)
		}
		res, err := adaptmr.Run(cfg, wl.Job, p, opts...)
		if err != nil {
			fail(err)
		}
		fmt.Printf("pair %s on %s: %.1fs\n", p, wl.Job.Name, res.Duration.Seconds())
		printPhases(res)
	}

	if tracer != nil {
		if err := tracer.WriteFile(*tracePath); err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d events written to %s\n", tracer.Len(), *tracePath)
	}
	if metrics != nil {
		if err := metricsOut.Write(metrics.Snapshot()); err != nil {
			fail(err)
		}
		fmt.Printf("metrics written to %s\n", metricsOut.Path)
	}
	if err := prof.Stop(); err != nil {
		fail(err)
	}
}

func printPhases(res adaptmr.JobResult) {
	fmt.Printf("  maps %d (%.1f waves), reduces %d\n", res.NumMaps, res.Waves, res.NumReduces)
	fmt.Printf("  ph1 map %.1fs | ph2 shuffle %.1fs | ph3 reduce %.1fs | non-concurrent shuffle %.1f%%\n",
		res.MapsDoneAt.Sub(res.Start).Seconds(),
		res.ShuffleDoneAt.Sub(res.MapsDoneAt).Seconds(),
		res.Done.Sub(res.ShuffleDoneAt).Seconds(),
		res.NonConcurrentShufflePct)
}
