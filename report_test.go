package adaptmr_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptmr"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden report files")

func reportConfig(hosts, vms int, seed int64) adaptmr.ClusterConfig {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = hosts
	cfg.VMsPerHost = vms
	cfg.Seed = seed
	return cfg
}

func runSortReport(t *testing.T, cfg adaptmr.ClusterConfig, inputMB int64) *adaptmr.Report {
	t.Helper()
	wl := adaptmr.SortBenchmark(inputMB << 20)
	rep, err := adaptmr.RunReport(cfg, wl.Job, adaptmr.DefaultPair)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportDeterministic pins the CI-gate prerequisite: two identical
// runs render byte-identical Markdown, HTML and JSON.
func TestReportDeterministic(t *testing.T) {
	render := func() (md, html, js []byte) {
		rep := runSortReport(t, reportConfig(2, 2, 1), 32)
		var mb, hb bytes.Buffer
		if err := rep.WriteMarkdown(&mb); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteHTML(&hb); err != nil {
			t.Fatal(err)
		}
		j, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return mb.Bytes(), hb.Bytes(), j
	}
	md1, html1, js1 := render()
	md2, html2, js2 := render()
	if !bytes.Equal(md1, md2) {
		t.Fatal("markdown output differs between identical runs")
	}
	if !bytes.Equal(html1, html2) {
		t.Fatal("HTML output differs between identical runs")
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("JSON output differs between identical runs")
	}
}

// TestReportSharedInstruments pins that a report covers its own run
// alone: two runs recording into one tracer and one registry each report
// exactly what a run on fresh instruments reports, while the shared
// instruments collect both runs.
func TestReportSharedInstruments(t *testing.T) {
	cfg, wl := reportConfig(2, 2, 1), adaptmr.SortBenchmark(32<<20)
	fresh := runSortReport(t, cfg, 32)
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	tr, m := adaptmr.NewTracer(), adaptmr.NewMetrics()
	var traced []int
	for i := 0; i < 2; i++ {
		rep, err := adaptmr.RunReport(cfg, wl.Job, adaptmr.DefaultPair,
			adaptmr.WithTracer(tr), adaptmr.WithMetrics(m))
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("run %d on shared instruments reports differently from a fresh run (sim_events %d, want %d)",
				i+1, rep.Totals.SimEvents, fresh.Totals.SimEvents)
		}
		traced = append(traced, tr.Len())
	}
	if traced[0] == 0 || traced[1] != 2*traced[0] {
		t.Errorf("shared tracer holds %v events after each run, want n then 2n", traced)
	}
	if got := m.Snapshot().Counters["sim.events"]; got != 2*fresh.Totals.SimEvents {
		t.Errorf("shared registry counts %d sim events, want both runs' %d", got, 2*fresh.Totals.SimEvents)
	}
}

// TestReportGolden compares the rendered Markdown for the fixed-seed
// sort run against the committed golden file. Regenerate with
// go test -run TestReportGolden -update-golden .
func TestReportGolden(t *testing.T) {
	rep := runSortReport(t, reportConfig(2, 2, 1), 32)
	var buf bytes.Buffer
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_sort_2x2_seed1.md", buf.Bytes())
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from golden file %s;\nrun go test -run %s -update-golden . and review the diff\n--- got ---\n%s",
			path, t.Name(), got)
	}
}

// TestFleetReportGolden pins the fleet Markdown of the built-in smoke
// scenario (run without perf stats, so no wall-clock row) byte for byte.
func TestFleetReportGolden(t *testing.T) {
	res, err := adaptmr.RunFleet(adaptmr.SmokeFleetScenario())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := adaptmr.WriteFleetReport(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet_smoke.md", buf.Bytes())
}

// TestExplainReportGolden pins that the journey and decision logs only
// add to RunReport's analysis: with them recorded, its Markdown starts
// with the committed run golden byte for byte and then appends the
// explain sections, whose full text is pinned in a golden of its own.
func TestExplainReportGolden(t *testing.T) {
	wl := adaptmr.SortBenchmark(32 << 20)
	exp, err := adaptmr.RunReport(reportConfig(2, 2, 1), wl.Job, adaptmr.DefaultPair,
		adaptmr.WithJourney(), adaptmr.WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exp.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	run, err := os.ReadFile(filepath.Join("testdata", "report_sort_2x2_seed1.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), run) {
		t.Fatalf("explain Markdown does not start with the RunReport golden\n--- got ---\n%s", buf.String())
	}
	checkGolden(t, "explain_sort_2x2_seed1.md", buf.Bytes())
}

// TestReportHTMLOnePage pins that the run and explain reports each render
// as one HTML page holding exactly the tables of their Markdown.
func TestReportHTMLOnePage(t *testing.T) {
	wl := adaptmr.SortBenchmark(32 << 20)
	for name, opts := range map[string][]adaptmr.Option{
		"report": nil, "explain": {adaptmr.WithJourney(), adaptmr.WithDecisionLog()},
	} {
		rep, err := adaptmr.RunReport(reportConfig(2, 2, 1), wl.Job, adaptmr.DefaultPair, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var md, page strings.Builder
		if err := rep.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteHTML(&page); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(page.String(), "<!DOCTYPE html>"); n != 1 {
			t.Errorf("%s: HTML holds %d documents, want 1", name, n)
		}
		mdTables := strings.Count(md.String(), "\n|---|")
		if n := strings.Count(page.String(), "<table>"); n != mdTables {
			t.Errorf("%s: HTML has %d tables, Markdown %d", name, n, mdTables)
		}
	}
}

// TestReportProperties checks the structural invariants across several
// configurations: critical-path coverage ≥ 90%, per-layer blame
// partitioning each segment (and the whole path) within float epsilon,
// and phase windows partitioning the makespan.
func TestReportProperties(t *testing.T) {
	const eps = 1e-3 // seconds, float-rendering slack on ns-exact partitions
	configs := []struct {
		hosts, vms int
		seed       int64
		inputMB    int64
		bench      string
	}{
		{2, 2, 1, 32, "sort"},
		{2, 2, 7, 32, "sort"},
		{2, 2, 1, 32, "wordcount"},
	}
	for _, c := range configs {
		cfg := reportConfig(c.hosts, c.vms, c.seed)
		var wl adaptmr.Workload
		switch c.bench {
		case "sort":
			wl = adaptmr.SortBenchmark(c.inputMB << 20)
		case "wordcount":
			wl = adaptmr.WordCountBenchmark(c.inputMB << 20)
		}
		rep, err := adaptmr.RunReport(cfg, wl.Job, adaptmr.DefaultPair)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}

		if rep.Critical.CoverageFrac < 0.9 {
			t.Errorf("%+v: coverage %v < 0.9", c, rep.Critical.CoverageFrac)
		}

		var pathSum float64
		for _, seg := range rep.Critical.Segments {
			var segSum float64
			for _, v := range seg.BlameS {
				if v < 0 {
					t.Errorf("%+v: negative blame %v in %s", c, v, seg.Phase)
				}
				segSum += v
			}
			if math.Abs(segSum-seg.DurationS) > eps {
				t.Errorf("%+v: %s blame sums to %v, segment is %v", c, seg.Phase, segSum, seg.DurationS)
			}
			pathSum += segSum
		}
		if pathSum > rep.Job.MakespanS+eps {
			t.Errorf("%+v: total blame %v exceeds makespan %v", c, pathSum, rep.Job.MakespanS)
		}

		var phaseSum float64
		for _, p := range rep.Phases {
			phaseSum += p.DurationS
		}
		if math.Abs(phaseSum-rep.Job.MakespanS) > eps {
			t.Errorf("%+v: phases sum to %v, makespan %v", c, phaseSum, rep.Job.MakespanS)
		}

		for level, q := range rep.Latency {
			if q.P50Ms > q.P95Ms+1e-9 || q.P95Ms > q.P99Ms+1e-9 {
				t.Errorf("%+v: %s quantiles not monotone: %+v", c, level, q)
			}
		}
	}
}

// TestGateBehaviour pins the regression gate: identical runs pass, a run
// on a cluster with a synthetically slowed disk fails, and mismatched
// configurations refuse to compare.
func TestGateBehaviour(t *testing.T) {
	base := runSortReport(t, reportConfig(2, 2, 1), 32).Bench

	// Identical rerun: no regression.
	same := runSortReport(t, reportConfig(2, 2, 1), 32).Bench
	cmp, err := adaptmr.CompareBenches(base, same)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() {
		t.Fatalf("identical rerun regressed: %+v", cmp.Deltas)
	}

	// Synthetic slowdown: host 0's disk at half speed must trip the gate.
	slowCfg := reportConfig(2, 2, 1)
	slowCfg.HostDiskSlowdown = map[int]float64{0: 2.0}
	slow := runSortReport(t, slowCfg, 32).Bench
	cmp, err = adaptmr.CompareBenches(base, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Regressed() {
		t.Fatalf("slowed run passed the gate: base makespan %v, slow %v", base.MakespanS, slow.MakespanS)
	}
	var text strings.Builder
	if err := cmp.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "FAIL") || !strings.Contains(text.String(), "REGRESSED") {
		t.Fatalf("comparison text missing verdicts:\n%s", text.String())
	}

	// Config mismatch errors out.
	other := runSortReport(t, reportConfig(2, 2, 2), 32).Bench
	if _, err := adaptmr.CompareBenches(base, other); err == nil {
		t.Fatal("seed mismatch should refuse to compare")
	}
}
