// Command adaptreport analyzes instrumented simulation runs into
// human-readable reports and gates performance regressions against a
// committed baseline.
//
// Subcommands:
//
//	adaptreport run  [sim flags] [-format md|html|json] [-o report.md] [-bench-out BENCH.json]
//	                 [-evalcache DIR]
//	    Run one fully instrumented job and render the analysis report
//	    (critical path with per-layer blame, phase breakdown, latency
//	    quantiles, timeseries). -evalcache additionally runs the same
//	    (cluster, job, plan) evaluation uninstrumented against the
//	    on-disk cache — warming it for the other tools (adaptd,
//	    adaptsim) — and prints the cache's hit/miss/bypass tallies.
//
//	adaptreport explain [sim flags] [-format md|html|json] [-o report.md]
//	    Run one fully instrumented job with journey and decision
//	    provenance enabled and render the run report with its explain
//	    sections after the full report: per-phase verdicts ("why this
//	    pair won this phase"), the ns-exact request latency decomposition
//	    per stage and per VM, and the scheduler decision tallies at both
//	    queue levels.
//
//	adaptreport gate [sim flags] [-baseline BENCH_baseline.json] [-tol 0.05]
//	                 [-candidate BENCH_candidate.json] [-html report.html] [-update]
//	                 [-parallel N] [-sweep-out sweep.json] [-o compare.txt]
//	    Run the suite's three workloads — the instrumented job ("sort"),
//	    the built-in fleet smoke scenario ("fleet:fleet-smoke") and the
//	    job under the online controller ("online:sort") — and compare
//	    each against its baseline entry. Exits 1 when a gated metric
//	    regressed beyond the tolerance or the event count changed at
//	    all. -update rewrites the baseline
//	    instead of comparing. -sweep-out additionally times the 16-pair
//	    profile sweep serial vs -parallel workers, verifies the outputs
//	    are identical, and writes the speedup record as JSON.
//
//	adaptreport compare [-tol 0.05] [-o compare.txt] base.json candidate.json
//	    Compare two previously written suites.
//
// Every bench file is a suite: a JSON array of bench summaries, one per
// workload (run -bench-out writes a one-entry suite). gate and compare
// pair entries by workload and print one verdict table each; a workload
// missing from one side, or listed twice, is a config error (exit 2). -o
// also writes the tables to a file (a JSON object keyed by workload when
// the path ends in .json), even on FAIL, so CI can upload the verdict.
//
// Sim flags (run, explain and gate): -bench, -pair, -hosts, -vms, -input,
// -seed, -slowdown. All output is deterministic for a fixed
// configuration, which is what makes byte-level baseline comparison
// possible.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"time"

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
	case "run":
		cmdRun(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "gate":
		cmdGate(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
	}
}

// simFlags binds the shared simulation flags on fs.
type simFlags struct {
	bench    *string
	pairArg  *string
	hosts    *int
	vms      *int
	inputMB  *int64
	seed     *int64
	slowdown *float64
	points   *int
	check    *bool
	perf     *bool
	log      *cliutil.LogFlag
}

func bindSimFlags(fs *flag.FlagSet) *simFlags {
	return &simFlags{
		bench:    fs.String("bench", "sort", "workload: sort, wordcount, wordcount-nc"),
		pairArg:  fs.String("pair", "cc", "scheduler pair (code or long form)"),
		hosts:    fs.Int("hosts", 2, "physical nodes"),
		vms:      fs.Int("vms", 2, "VMs per node"),
		inputMB:  fs.Int64("input", 64, "input data per datanode VM, in MB"),
		seed:     fs.Int64("seed", 1, "simulation seed"),
		slowdown: fs.Float64("slowdown", 0, "slow host 0's disk by this factor (0 = off; for gate testing)"),
		points:   fs.Int("timeseries-points", 0, "timeseries sample cap (0 = default 160)"),
		check:    cliutil.BindCheckFlag(fs),
		perf: fs.Bool("perf", true,
			"collect engine self-telemetry (wall clock, events/sec, allocs/event) into the bench summary; disable for byte-identical reports"),
		log: cliutil.BindLogFlag(fs),
	}
}

// setup resolves the sim flags into a cluster config, workload and pair.
func (sf *simFlags) setup() (adaptmr.ClusterConfig, adaptmr.Workload, adaptmr.Pair, error) {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = *sf.hosts
	cfg.VMsPerHost = *sf.vms
	cfg.Seed = *sf.seed
	if *sf.slowdown > 0 {
		cfg.HostDiskSlowdown = map[int]float64{0: *sf.slowdown}
	}

	wl, err := workloads.ByName(*sf.bench, *sf.inputMB<<20)
	if err != nil {
		return cfg, wl, adaptmr.Pair{}, err
	}
	pair, err := adaptmr.ParsePair(*sf.pairArg)
	if err != nil {
		return cfg, wl, adaptmr.Pair{}, err
	}
	return cfg, wl, pair, nil
}

// reportOptions labels the instrumented run with the sim flags.
func (sf *simFlags) reportOptions() adaptmr.ReportOptions {
	return adaptmr.ReportOptions{
		Workload:         *sf.bench,
		InputMB:          *sf.inputMB,
		TimeseriesPoints: *sf.points,
		CheckInvariants:  *sf.check,
		CollectPerf:      *sf.perf,
	}
}

// run executes one instrumented job per the sim flags and analyzes it.
func (sf *simFlags) run() (*adaptmr.Report, error) {
	cfg, wl, pair, err := sf.setup()
	if err != nil {
		return nil, err
	}
	return adaptmr.RunReport(cfg, wl.Job, pair, sf.reportOptions())
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("adaptreport run", flag.ExitOnError)
	sf := bindSimFlags(fs)
	format := fs.String("format", "md", "output format: md, html or json")
	out := fs.String("o", "", "output path (default stdout)")
	benchOut := fs.String("bench-out", "", "also write the run's bench summary here, as a one-entry suite")
	evalCache := cliutil.BindEvalCacheFlag(fs)
	prof := cliutil.BindProfileFlags(fs)
	fs.Parse(args)
	initLogger(sf.log)
	if err := prof.Start(); err != nil {
		fail(err)
	}

	// The instrumented report run cannot be served from the eval cache
	// (cached results cannot replay their observations), so -evalcache
	// instead primes the cache with the equivalent uninstrumented
	// evaluation and reports the tallies.
	if *evalCache != "" {
		if err := primeEvalCache(sf, *evalCache); err != nil {
			fail(err)
		}
	}

	rep, err := sf.run()
	if err != nil {
		fail(err)
	}
	if err := writeReport(rep, *format, *out); err != nil {
		fail(err)
	}
	if *benchOut != "" {
		if err := writeJSONFile(*benchOut, []adaptmr.Bench{rep.Bench}); err != nil {
			fail(err)
		}
	}
	if err := prof.Stop(); err != nil {
		fail(err)
	}
}

// cmdExplain runs one instrumented job with journey and decision
// provenance enabled and renders the report with its explain sections.
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("adaptreport explain", flag.ExitOnError)
	sf := bindSimFlags(fs)
	format := fs.String("format", "md", "output format: md, html or json")
	out := fs.String("o", "", "output path (default stdout)")
	prof := cliutil.BindProfileFlags(fs)
	fs.Parse(args)
	initLogger(sf.log)
	if err := prof.Start(); err != nil {
		fail(err)
	}

	cfg, wl, pair, err := sf.setup()
	if err != nil {
		fail(err)
	}
	rep, err := adaptmr.RunExplain(cfg, wl.Job, pair, sf.reportOptions())
	if err != nil {
		fail(err)
	}
	if err := writeReport(rep, *format, *out); err != nil {
		fail(err)
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

// primeEvalCache runs the report's (cluster, job, pair) evaluation
// uninstrumented against the on-disk cache at dir — a hit answers from
// disk, a miss simulates once and stores — and prints the cache's
// lifetime tallies.
func primeEvalCache(sf *simFlags, dir string) error {
	cfg, wl, pair, err := sf.setup()
	if err != nil {
		return err
	}
	cache, err := adaptmr.OpenEvalCache(dir)
	if err != nil {
		return err
	}
	tuner := adaptmr.NewTuner(cfg, wl.Job, adaptmr.WithEvalCacheHandle(cache))
	if _, err := tuner.RunPlan(adaptmr.UniformPlan(adaptmr.TwoPhases, pair)); err != nil {
		return err
	}
	st := cache.Stats()
	logger.Info("evalcache primed", "dir", dir,
		"hits", st.Hits, "misses", st.Misses, "bypasses", st.Bypasses)
	return nil
}

func cmdGate(args []string) {
	fs := flag.NewFlagSet("adaptreport gate", flag.ExitOnError)
	sf := bindSimFlags(fs)
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed baseline suite JSON (one bench per workload)")
	tol := fs.Float64("tol", 0.05, "relative regression tolerance on gated metrics")
	candidate := fs.String("candidate", "", "write the candidate suite JSON here (for CI artifacts)")
	htmlOut := fs.String("html", "", "write the candidate's full HTML report here")
	update := fs.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	parallel := cliutil.BindParallelFlag(fs)
	sweepOut := fs.String("sweep-out", "",
		"also run the 16-pair profile sweep serial and with -parallel workers, verify identical output, and write the timing JSON here")
	cmpOut := fs.String("o", "",
		"write the comparison here too (JSON when the path ends in .json, the text tables otherwise)")
	prof := cliutil.BindProfileFlags(fs)
	fs.Parse(args)
	initLogger(sf.log)
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
	rep, err := sf.run()
	if err != nil {
		fail(err)
	}
	if *sf.perf {
		const perfRepeats = 5
		for i := 0; i < perfRepeats; i++ {
			r, err := sf.run()
			if err != nil {
				fail(err)
			}
			if r.Bench.EventsPerSec > rep.Bench.EventsPerSec {
				rep = r
			}
		}
	}
	if *sweepOut != "" {
		if err := writeSweep(sf, *parallel, *sweepOut); err != nil {
			fail(err)
		}
	}

	// The fleet smoke scenario and the same job under the online
	// controller at smoke-scale policy run without perf collection, so
	// their entries are byte-deterministic. The online switch count gates
	// near-exactly: a controller behaviour change needs an explicit
	// baseline update.
	fleet, err := adaptmr.RunFleet(adaptmr.SmokeFleetScenario(), adaptmr.WithParallelism(*parallel))
	if err != nil {
		fail(err)
	}
	cfg, wl, _, err := sf.setup()
	if err != nil {
		fail(err)
	}
	online, err := adaptmr.RunOnline(cfg, wl.Job,
		adaptmr.WithOnlineControl(adaptmr.SmokeOnlinePolicy()),
		adaptmr.WithParallelism(*parallel))
	if err != nil {
		fail(err)
	}
	suite := []adaptmr.Bench{rep.Bench, adaptmr.FleetBench(fleet),
		adaptmr.OnlineBench(online, *sf.bench, cfg, *sf.inputMB)}
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
	regressed, err := compareSuites(os.Stdout, base, suite, *tol, *cmpOut)
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
	tol := fs.Float64("tol", 0.05, "relative regression tolerance on gated metrics")
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
	regressed, err := compareSuites(os.Stdout, base, cand, *tol, *cmpOut)
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
func compareSuites(w io.Writer, base, cand []adaptmr.Bench, tol float64, out string) (bool, error) {
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
		cmp, err := adaptmr.CompareBenches(b, c, tol)
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

// sweepRecord is the JSON artifact produced by gate -sweep-out: the
// serial vs parallel timing of the 16-pair profile sweep plus the
// byte-identity verdict.
type sweepRecord struct {
	Bench           string  `json:"bench"`
	Pairs           int     `json:"pairs"`
	Workers         int     `json:"workers"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Evaluations     int     `json:"evaluations"`
	Identical       bool    `json:"identical"`
}

// writeSweep runs the full 16-pair profile sweep twice — serial and with
// the requested worker count — verifies the profiles are byte-identical
// and the evaluation count unchanged, and records the wall-clock speedup.
func writeSweep(sf *simFlags, parallel int, path string) error {
	cfg, wl, _, err := sf.setup()
	if err != nil {
		return err
	}
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	profile := func(n int) ([]adaptmr.Profile, int, float64, error) {
		tuner := adaptmr.NewTuner(cfg, wl.Job, adaptmr.WithParallelism(n))
		start := time.Now()
		profs, err := tuner.Profile()
		if err != nil {
			return nil, 0, 0, err
		}
		return profs, tuner.Evaluations(), time.Since(start).Seconds(), nil
	}

	serial, serialEvals, serialSecs, err := profile(1)
	if err != nil {
		return err
	}
	par, parEvals, parSecs, err := profile(workers)
	if err != nil {
		return err
	}

	serialJSON, err := json.Marshal(serial)
	if err != nil {
		return err
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		return err
	}
	identical := bytes.Equal(serialJSON, parJSON) && serialEvals == parEvals
	rec := sweepRecord{
		Bench:           *sf.bench,
		Pairs:           len(serial),
		Workers:         workers,
		SerialSeconds:   serialSecs,
		ParallelSeconds: parSecs,
		Speedup:         serialSecs / parSecs,
		Evaluations:     parEvals,
		Identical:       identical,
	}
	if err := writeJSONFile(path, rec); err != nil {
		return err
	}
	fmt.Printf("sweep: %d pairs, serial %.2fs, %d workers %.2fs (%.2fx), identical=%v -> %s\n",
		rec.Pairs, rec.SerialSeconds, rec.Workers, rec.ParallelSeconds, rec.Speedup, rec.Identical, path)
	if !identical {
		return fmt.Errorf("parallel profile sweep diverged from serial output")
	}
	return nil
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
