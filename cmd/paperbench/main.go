// Command paperbench regenerates every table and figure of the paper's
// evaluation section on the simulated testbed and prints the rendered
// artefacts.
//
// Usage:
//
//	paperbench [-quick] [-only fig2,table1] [-o out.txt] [-trace t.json] [-metrics m.csv] [-parallel N]
//
// With -quick a scaled-down testbed is used (2×2 cluster, smaller inputs,
// 6 candidate pairs); without it the full paper configuration runs (4×4
// cluster, 512 MB per datanode, all 16 pairs), which takes about a minute
// on 2 cores.
// -parallel N fans the independent sweep cells and tuner evaluations
// across N workers (0 = GOMAXPROCS) with byte-identical artefacts; when
// -trace or -metrics is set the direct sweeps fall back to serial so the
// shared sinks record in the historical order. -metrics-format picks the
// snapshot encoding: json, csv, prom (Prometheus text exposition) or
// auto by extension.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"adaptmr"
	"adaptmr/internal/cliutil"
)

// logger carries diagnostics to stderr (configured by -log); artefact
// output stays on stdout / -o.
var logger = slog.Default()

func fail(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down configuration")
	only := flag.String("only", "", "comma-separated subset (fig1..fig8, table1, table2)")
	out := flag.String("o", "", "also write the artefacts to this file")
	csvDir := flag.String("csv", "", "directory to write per-artefact CSV data into")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file covering every simulated job")
	metricsOut := cliutil.BindMetricsFlags(flag.CommandLine)
	parallel := cliutil.BindParallelFlag(flag.CommandLine)
	checkInv := cliutil.BindCheckFlag(flag.CommandLine)
	prof := cliutil.BindProfileFlags(flag.CommandLine)
	logFlag := cliutil.BindLogFlag(flag.CommandLine)
	flag.Parse()

	l, err := logFlag.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	logger = l

	if err := prof.Start(); err != nil {
		fail(err)
	}

	cfg := adaptmr.PaperExperiments()
	if *quick {
		cfg = adaptmr.QuickExperiments()
	}
	cfg.Parallelism = *parallel

	var tracer *adaptmr.Tracer
	if *tracePath != "" {
		tracer = adaptmr.NewTracer()
		cfg.Cluster.Obs.Trace = tracer
	}
	var metrics *adaptmr.Metrics
	if metricsOut.Enabled() {
		metrics = adaptmr.NewMetrics()
		cfg.Cluster.Obs.Metrics = metrics
	}
	var checks *adaptmr.CheckSet
	if *checkInv {
		checks = adaptmr.NewCheckSet()
		cfg.Cluster.Check = checks
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var subset []string
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			if s = strings.TrimSpace(s); s != "" {
				subset = append(subset, s)
			}
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
	}
	if err := adaptmr.RunExperiments(cfg, w, *csvDir, subset...); err != nil {
		fail(err)
	}

	if checks != nil {
		checks.Finalize()
		if err := checks.Err(); err != nil {
			fail(err)
		}
		logger.Info("invariant checks clean")
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
