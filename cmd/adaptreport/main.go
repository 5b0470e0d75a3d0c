// Command adaptreport analyzes instrumented simulation runs into
// human-readable reports and gates performance regressions against a
// committed baseline.
//
// Subcommands:
//
//	adaptreport run|explain [sim flags] [-format md|html|json] [-o report.md]
//	    Run one fully instrumented job and render the analysis report
//	    (critical path with per-layer blame, phase breakdown, latency
//	    quantiles, timeseries); run -bench-out BENCH.json also writes its
//	    bench summary. explain also records journey and decision
//	    provenance and renders the explain sections after the full report:
//	    per-phase verdicts ("why this pair won this phase"), the ns-exact
//	    request latency decomposition per stage and per VM, and the
//	    scheduler decision tallies at both queue levels.
//
//	adaptreport gate [-baseline BENCH_baseline.json] [-candidate BENCH_candidate.json]
//	                 [-html report.html] [-update] [-parallel N] [-o compare.txt]
//	    Run the suite's three workloads on the gate's one testbed (sort at
//	    64 MB per VM on 2 hosts × 2 VMs, seed 1, pair cc) — the
//	    instrumented job ("sort"), the built-in fleet smoke scenario
//	    ("fleet:fleet-smoke") and the job under the online controller
//	    ("online:sort") — and compare each against its baseline entry.
//	    Exits 1 when any simulated field differs from the baseline at all
//	    or a perf row left its bound. -update rewrites the baseline
//	    instead of comparing.
//
//	adaptreport compare [-o compare.txt] base.json candidate.json
//	    Compare two previously written suites.
//
// Every bench file is a suite: a JSON array of bench summaries, one per
// workload (run -bench-out writes a one-entry suite). gate and compare
// pair entries by workload and print one verdict table each; a workload
// missing from one side, or listed twice, is a config error (exit 2). -o
// also writes the tables to a file (a JSON object keyed by workload when
// the path ends in .json), even on FAIL, so CI can upload the verdict.
//
// Sim flags (run and explain): -bench, -pair, -hosts, -vms, -input,
// -seed, -check, -perf; their defaults are the gate's testbed. All output
// is deterministic for a fixed configuration (with -perf=false), which is
// what makes exact baseline comparison possible.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"adaptmr"
	"adaptmr/internal/cliutil"
	"adaptmr/internal/workloads"
)

// logger is the process-wide diagnostic logger; each subcommand rebinds it
// from its parsed -log flag. Result output (reports, verdict tables) stays
// on stdout — only diagnostics go through here.
var logger = slog.Default()

func fail(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(2)
}

// initLogger resolves the parsed -log flag into the process logger.
func initLogger(lf *cliutil.LogFlag) {
	lg, err := lf.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptreport:", err)
		os.Exit(2)
	}
	logger = lg
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: adaptreport <run|explain|gate|compare> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run", "explain":
		cmdRun(os.Args[1], os.Args[2:])
	case "gate":
		cmdGate(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
	}
}

// testbed is one simulation's settings.
type testbed struct {
	bench, pair   string
	hosts, vms    int
	inputMB, seed int64
	check, perf   bool
}

// gateTestbed is the gate's one testbed, which every baseline entry
// records: sort at 64 MB per VM on 2 hosts × 2 VMs, seed 1, pair cc,
// unchecked, with engine self-telemetry. run and explain default to it.
var gateTestbed = testbed{bench: "sort", pair: "cc", hosts: 2, vms: 2, inputMB: 64, seed: 1, perf: true}

// bindTestbed binds the simulation flags of run and explain on fs.
func bindTestbed(fs *flag.FlagSet) *testbed {
	tb := gateTestbed
	fs.StringVar(&tb.bench, "bench", tb.bench, "workload: sort, wordcount, wordcount-nc")
	fs.StringVar(&tb.pair, "pair", tb.pair, "scheduler pair (code or long form)")
	fs.IntVar(&tb.hosts, "hosts", tb.hosts, "physical nodes")
	fs.IntVar(&tb.vms, "vms", tb.vms, "VMs per node")
	fs.Int64Var(&tb.inputMB, "input", tb.inputMB, "input data per datanode VM, in MB")
	fs.Int64Var(&tb.seed, "seed", tb.seed, "simulation seed")
	fs.BoolVar(&tb.check, "check", tb.check,
		"attach runtime invariant checks to every block queue (a violation fails the run)")
	fs.BoolVar(&tb.perf, "perf", tb.perf,
		"collect engine self-telemetry (wall clock, events/sec, allocs/event) into the bench summary; disable for byte-identical reports")
	return &tb
}

// setup resolves the testbed into a cluster config, workload and pair.
func (tb testbed) setup() (adaptmr.ClusterConfig, adaptmr.Workload, adaptmr.Pair, error) {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = tb.hosts
	cfg.VMsPerHost = tb.vms
	cfg.Seed = tb.seed

	wl, err := workloads.ByName(tb.bench, tb.inputMB<<20)
	if err != nil {
		return cfg, wl, adaptmr.Pair{}, err
	}
	pair, err := adaptmr.ParsePair(tb.pair)
	if err != nil {
		return cfg, wl, adaptmr.Pair{}, err
	}
	return cfg, wl, pair, nil
}

// run executes one instrumented job on the testbed and analyzes it;
// opts adds facade options (explain's journey and decision logs).
func (tb testbed) run(opts ...adaptmr.Option) (*adaptmr.Report, error) {
	cfg, wl, pair, err := tb.setup()
	if err != nil {
		return nil, err
	}
	if tb.check {
		opts = append(opts, adaptmr.WithInvariantChecks())
	}
	if tb.perf {
		opts = append(opts, adaptmr.WithPerfStats())
	}
	return adaptmr.RunReport(cfg, wl.Job, pair, opts...)
}

// cmdRun is run and explain: one instrumented job rendered as its report.
// explain attaches the journey and decision logs, so the report carries
// its explain sections after the run report.
func cmdRun(name string, args []string) {
	fs := flag.NewFlagSet("adaptreport "+name, flag.ExitOnError)
	tb := bindTestbed(fs)
	lf := cliutil.BindLogFlag(fs)
	format := fs.String("format", "md", "output format: md, html or json")
	out := fs.String("o", "", "output path (default stdout)")
	// Only run writes a bench: explain's journey log turns request pooling
	// off, which moves the gated allocs_per_event.
	var benchOut *string
	if name == "run" {
		benchOut = fs.String("bench-out", "", "also write the run's bench summary here, as a one-entry suite")
	}
	prof := cliutil.BindProfileFlags(fs)
	fs.Parse(args)
	initLogger(lf)
	if err := prof.Start(); err != nil {
		fail(err)
	}

	var opts []adaptmr.Option
	if name == "explain" {
		opts = []adaptmr.Option{adaptmr.WithJourney(), adaptmr.WithDecisionLog()}
	}
	rep, err := tb.run(opts...)
	if err != nil {
		fail(err)
	}
	if err := writeReport(rep, *format, *out); err != nil {
		fail(err)
	}
	if benchOut != nil && *benchOut != "" {
		if err := writeJSONFile(*benchOut, []adaptmr.Bench{rep.Bench}); err != nil {
			fail(err)
		}
	}
	if err := prof.Stop(); err != nil {
		fail(err)
	}
}

// writeReport renders rep as md, html or json to path, or to stdout
// when path is empty.
func writeReport(rep *adaptmr.Report, format, path string) error {
	var render func(io.Writer) error
	switch format {
	case "md", "markdown":
		render = rep.WriteMarkdown
	case "html":
		render = rep.WriteHTML
	case "json":
		render = func(w io.Writer) error { return writeJSON(w, rep) }
	default:
		return fmt.Errorf("unknown format %q (want md, html or json)", format)
	}
	if path == "" {
		return render(os.Stdout)
	}
	return writeFile(path, render)
}

func cmdGate(args []string) {
	fs := flag.NewFlagSet("adaptreport gate", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed baseline suite JSON (one bench per workload)")
	candidate := fs.String("candidate", "", "write the candidate suite JSON here (for CI artifacts)")
	htmlOut := fs.String("html", "", "write the candidate's full HTML report here")
	update := fs.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	parallel := cliutil.BindParallelFlag(fs)
	cmpOut := fs.String("o", "",
		"write the comparison here too (JSON when the path ends in .json, the text tables otherwise)")
	prof := cliutil.BindProfileFlags(fs)
	lf := cliutil.BindLogFlag(fs)
	fs.Parse(args)
	initLogger(lf)
	if err := prof.Start(); err != nil {
		fail(err)
	}

	// Perf numbers are wall-clock, so one cold run in a fresh process
	// understates the engine: the first evaluation pays one-time costs
	// (first-touch page faults while the heap grows, lazy runtime init)
	// and any later one can be preempted on a busy machine. Warm up once,
	// then measure a few repeats and keep the fastest — the standard
	// estimator of true cost under scheduling noise. The simulation is
	// deterministic, so every repeat produces the identical report; only
	// timing fidelity changes.
	rep, err := gateTestbed.run()
	if err != nil {
		fail(err)
	}
	const perfRepeats = 5
	for i := 0; i < perfRepeats; i++ {
		r, err := gateTestbed.run()
		if err != nil {
			fail(err)
		}
		if r.Bench.EventsPerSec > rep.Bench.EventsPerSec {
			rep = r
		}
	}

	// The fleet smoke scenario and the same job under the online
	// controller at smoke-scale policy run without perf collection, so
	// their entries are byte-deterministic.
	fleet, err := adaptmr.RunFleet(adaptmr.SmokeFleetScenario(), adaptmr.WithParallelism(*parallel))
	if err != nil {
		fail(err)
	}
	cfg, wl, _, err := gateTestbed.setup()
	if err != nil {
		fail(err)
	}
	online, err := adaptmr.RunOnline(cfg, wl.Job, adaptmr.WithOnlineControl(adaptmr.SmokeOnlinePolicy()))
	if err != nil {
		fail(err)
	}
	suite := []adaptmr.Bench{rep.Bench, adaptmr.FleetBench(fleet),
		adaptmr.OnlineBench(online, cfg, wl.Job)}
	if *candidate != "" {
		if err := writeJSONFile(*candidate, suite); err != nil {
			fail(err)
		}
	}
	if *htmlOut != "" {
		if err := writeFile(*htmlOut, rep.WriteHTML); err != nil {
			fail(err)
		}
	}
	if *update {
		if err := writeJSONFile(*baseline, suite); err != nil {
			fail(err)
		}
		fmt.Printf("baseline updated: %s (%d workloads)\n", *baseline, len(suite))
		if err := prof.Stop(); err != nil {
			fail(err)
		}
		return
	}

	base, err := readSuite(*baseline)
	if err != nil {
		fail(err)
	}
	regressed, err := compareSuites(os.Stdout, base, suite, *cmpOut)
	if err != nil {
		fail(err)
	}
	if err := prof.Stop(); err != nil {
		fail(err)
	}
	if regressed {
		os.Exit(1)
	}
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("adaptreport compare", flag.ExitOnError)
	cmpOut := fs.String("o", "",
		"write the comparison here too (JSON when the path ends in .json, the text tables otherwise)")
	lf := cliutil.BindLogFlag(fs)
	fs.Parse(args)
	initLogger(lf)
	if fs.NArg() != 2 {
		fail(fmt.Errorf("compare needs exactly two suite JSON paths, got %d", fs.NArg()))
	}
	base, err := readSuite(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	cand, err := readSuite(fs.Arg(1))
	if err != nil {
		fail(err)
	}
	regressed, err := compareSuites(os.Stdout, base, cand, *cmpOut)
	if err != nil {
		fail(err)
	}
	if regressed {
		os.Exit(1)
	}
}

// compareSuites pairs the baseline and candidate entries by workload,
// writes one verdict table per workload to w, in baseline order, and
// reports whether any workload regressed. A workload missing from either
// side, or listed twice, is a config error. When out is set the tables
// are also written there — even on FAIL, so CI can upload the verdict
// before the exit status stops the job.
func compareSuites(w io.Writer, base, cand []adaptmr.Bench, out string) (bool, error) {
	candBy := make(map[string]adaptmr.Bench, len(cand))
	for _, c := range cand {
		if _, dup := candBy[c.Workload]; dup {
			return false, fmt.Errorf("the candidate lists workload %q twice", c.Workload)
		}
		candBy[c.Workload] = c
	}
	var text bytes.Buffer
	tables := make(map[string]adaptmr.Comparison, len(base))
	regressed := false
	for i, b := range base {
		if _, dup := tables[b.Workload]; dup {
			return false, fmt.Errorf("the baseline lists workload %q twice", b.Workload)
		}
		c, ok := candBy[b.Workload]
		if !ok {
			return false, fmt.Errorf("workload %q is in the baseline but not the candidate", b.Workload)
		}
		cmp, err := adaptmr.CompareBenches(b, c)
		if err != nil {
			return false, fmt.Errorf("workload %q: %w", b.Workload, err)
		}
		if i > 0 {
			text.WriteByte('\n')
		}
		fmt.Fprintf(&text, "workload %s:\n", b.Workload)
		cmp.WriteText(&text)
		tables[b.Workload] = cmp
		regressed = regressed || cmp.Regressed()
	}
	for _, c := range cand {
		if _, ok := tables[c.Workload]; !ok {
			return false, fmt.Errorf("workload %q is in the candidate but not the baseline", c.Workload)
		}
	}
	if _, err := w.Write(text.Bytes()); err != nil {
		return false, err
	}
	switch {
	case out == "":
		return regressed, nil
	case strings.HasSuffix(out, ".json"):
		return regressed, writeJSONFile(out, tables)
	default:
		return regressed, os.WriteFile(out, text.Bytes(), 0o644)
	}
}

// readSuite loads a bench file: a JSON array of bench summaries, one
// per workload.
func readSuite(path string) ([]adaptmr.Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var suite []adaptmr.Bench
	if err := json.Unmarshal(data, &suite); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return suite, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeJSONFile(path string, v any) error {
	return writeFile(path, func(w io.Writer) error { return writeJSON(w, v) })
}

// writeFile creates path and renders into it, returning the first error
// from the render or the close.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
