package analyze

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"adaptmr/internal/obs"
)

// WriteMarkdown renders the report as a GitHub-flavoured Markdown
// document. All iteration is over sorted keys, so the output for a fixed
// seed is byte-identical across runs.
func (r *Report) WriteMarkdown(w io.Writer) error { return writeMarkdown(w, r.document()) }

// WriteHTML renders the report as one self-contained HTML page: the
// Markdown's tables plus inline SVG charts (phase timeline, per-segment
// blame bars, and queue-depth / throughput / disk-busy timeseries).
// Deterministic byte for byte for a fixed seed.
func (r *Report) WriteHTML(w io.Writer) error { return writeHTML(w, r.document()) }

// document lays the report out: the run analysis, then — on an explain
// run — the per-phase verdicts, the journeys and the decision tallies.
func (r *Report) document() *document {
	d := &document{title: "adaptmr run report"}
	d.para("Job **%s** — makespan **%.3f s** (%d maps, %d reduces)",
		r.Job.Name, r.Job.MakespanS, r.Job.Maps, r.Job.Reduces)
	d.para("Config: workload=%s hosts=%d vms=%d input=%dMB seed=%d pair=%s",
		r.Bench.Workload, r.Bench.Hosts, r.Bench.VMs, r.Bench.InputMB, r.Bench.Seed, r.Bench.Pair)
	d.chart(func(w *errWriter) {
		w.printf("<h2>Phase timeline</h2>\n")
		writePhaseTimeline(w, r)
	})

	d.h2("Critical path")
	d.para("Coverage: %.1f%% of makespan", r.Critical.CoverageFrac*100)
	d.chart(func(w *errWriter) { writeBlameBars(w, r) })
	head := []string{"phase", "critical task", "host", "vm", "window (s)", "dur (s)"}
	for _, layer := range Layers() {
		head = append(head, layer+" (s)")
	}
	t := d.table("%s %s %d %d %s %.3f"+strings.Repeat(" %.3f", len(Layers())), head...)
	for _, seg := range r.Critical.Segments {
		row := []any{seg.Phase, seg.Task, seg.Host, seg.VM,
			fmt.Sprintf("%.3f–%.3f", seg.StartS, seg.EndS), seg.DurationS}
		for _, layer := range Layers() {
			row = append(row, seg.BlameS[layer])
		}
		t.row(row...)
	}
	total := []any{"**total**", "", "", "", "", sumSegDur(r.Critical.Segments)}
	for _, layer := range Layers() {
		total = append(total, r.Critical.BlameS[layer])
	}
	t.row(total...)

	d.h2("Phase breakdown")
	t = d.table("%s %.3f %s %d %.2f %.2f %.3f %.3f %.3f %.3f",
		"phase", "dur (s)", "level", "reqs", "read MB", "written MB", "avg wait ms", "p50 ms", "p95 ms", "p99 ms")
	for _, p := range r.Phases {
		for _, level := range sortedKeys(p.IO) {
			lio := p.IO[level]
			t.row(p.Name, p.DurationS, level, lio.Requests, lio.ReadMB, lio.WrittenMB,
				lio.AvgWaitMs, lio.P50Ms, lio.P95Ms, lio.P99Ms)
		}
	}
	t = d.table("%s %d %.1f %.0f %.2f %.2f %d %.4f %d %.2f",
		"phase", "disk reqs", "busy %", "avg seek (sectors)", "disk read MB", "disk written MB",
		"switches", "stall s", "backlog", "net MB")
	for _, p := range r.Phases {
		t.row(p.Name, p.Disk.Requests, p.Disk.BusyFrac*100, p.Disk.SeekAvgSectors,
			p.Disk.ReadMB, p.Disk.WrittenMB,
			p.Switches.Count, p.Switches.StallS, p.Switches.Backlog, p.NetMB)
	}

	if len(r.Latency) > 0 {
		d.h2("Whole-run latency")
		t = d.table("%s %d %.3f %.3f %.3f", "level", "count", "p50 ms", "p95 ms", "p99 ms")
		for _, level := range sortedKeys(r.Latency) {
			q := r.Latency[level]
			t.row(level, q.Count, q.P50Ms, q.P95Ms, q.P99Ms)
		}
	}

	d.h2("Totals")
	tt := r.Totals
	t = d.table("%s %s", "metric", "value")
	t.row("sim events", strconv.FormatInt(tt.SimEvents, 10))
	t.row("vm requests", fmt.Sprintf("%d (%.2f MB)", tt.VMRequests, tt.VMMB))
	t.row("dom0 requests", fmt.Sprintf("%d (%.2f MB)", tt.Dom0Requests, tt.Dom0MB))
	t.row("merged (vm / dom0)", fmt.Sprintf("%d / %d", tt.MergedVM, tt.MergedDom0))
	t.row("net flows", fmt.Sprintf("%d (%.2f MB)", tt.NetFlows, tt.NetMB))
	t.row("elevator switches", fmt.Sprintf("%d (stall %.4f s, backlog %d)", tt.Switches, tt.SwitchStallS, tt.SwitchBacklog))
	t.row("peak depth (vm / dom0)", fmt.Sprintf("%.0f / %.0f", tt.PeakDepthVM, tt.PeakDepthDom0))

	// The Markdown summarises the timeseries; the full series lives in the
	// JSON and the HTML charts.
	if ts := r.Timeseries; ts != nil && ts.Samples > 0 {
		d.h2("Timeseries")
		d.para("%d samples at %.1f s interval from t=%.1f s. Peak dom0 depth %d, peak vm depth %d, peak disk busy %.0f%%.",
			ts.Samples, ts.IntervalS, ts.StartS,
			peak(ts.Depth["dom0"]), peak(ts.Depth["vm"]), peak(ts.DiskBusyFrac)*100)
		if ts.Samples > 1 {
			d.chart(func(w *errWriter) {
				writeDepthChart(w, ts, "Queue depth (waiting)", ts.Depth)
				writeDepthChart(w, ts, "Outstanding requests", ts.Outstanding)
				writeLineChart(w, ts, "Throughput (MB/s)", ts.ThroughputMBps)
				writeLineChart(w, ts, "Disk busy fraction", map[string][]float64{"disk": ts.DiskBusyFrac})
			})
		}
	}

	if r.Journeys != nil || r.Decisions != nil {
		r.explainSections(d)
	}
	return d
}

// explainSections appends the explain run's sections: a per-phase verdict
// combining the dominant journey stage, the decision tallies and the
// critical-path blame, then the journey and decision detail tables.
func (r *Report) explainSections(d *document) {
	d.h2("Why each phase went the way it did")
	d.list(r.verdicts())

	if ja := r.Journeys; ja != nil {
		d.h2("Request journeys")
		if s := ja.Summary; s != nil {
			d.para("%d journeys (%d merged, %d reads), %.3f s total latency; "+
				"stage decomposition ns-exact for every request: %v",
				s.Requests, s.Merged, s.Reads, float64(s.TotalNS)/1e9, ja.AllExact)
		}
		if ja.Unattributed > 0 {
			d.para("%d journeys completed outside every phase window.", ja.Unattributed)
		}
		head := []string{"phase", "reqs", "merged", "reads", "p50 ms", "p95 ms", "p99 ms"}
		for _, st := range obs.StageNames() {
			head = append(head, st+" %")
		}
		t := d.table("%s %d %d %d %.3f %.3f %.3f"+strings.Repeat(" %.1f", obs.NumStages), head...)
		for _, p := range ja.Phases {
			row := []any{p.Name, p.Requests, p.Merged, p.Reads, p.P50Ms, p.P95Ms, p.P99Ms}
			for _, st := range obs.StageNames() {
				row = append(row, p.StagePct[st])
			}
			t.row(row...)
		}

		d.h3("Per-VM journey latency (s)")
		t = d.table("%s %d %d %d %.3f %.3f %.3f %.3f",
			"phase", "host", "vm", "reqs", "total s", "guest queue s", "dom0 queue s", "disk s")
		secs := func(ns int64) float64 { return float64(ns) / 1e9 }
		for _, p := range ja.Phases {
			for _, v := range p.PerVM {
				disk := v.StageNS["seek"] + v.StageNS["rotation"] + v.StageNS["transfer"] + v.StageNS["overhead"]
				t.row(p.Name, v.Host, v.VM, v.Requests, secs(v.TotalNS),
					secs(v.StageNS["guest_stall"]+v.StageNS["guest_queue"]),
					secs(v.StageNS["dom0_stall"]+v.StageNS["dom0_queue"]),
					secs(disk))
			}
		}
	}

	if da := r.Decisions; da != nil {
		d.h2("Scheduler decisions")
		if s := da.Summary; s != nil {
			decisionTally(d, "whole run — vm level", s.VM)
			decisionTally(d, "whole run — dom0 level", s.Dom0)
		}
		for _, p := range da.Phases {
			decisionTally(d, p.Name+" — vm level", p.VM)
			decisionTally(d, p.Name+" — dom0 level", p.Dom0)
		}
	}
}

func decisionTally(d *document, title string, tally map[string]int64) {
	if len(tally) == 0 {
		return
	}
	d.para("**%s**", title)
	t := d.table("%s %d", "decision", "count")
	for _, k := range sortedKeys(tally) {
		t.row(k, tally[k])
	}
}

// verdicts builds one narrative line per phase, combining the dominant
// journey stage, the critical-path blame and the busiest decision kinds.
func (r *Report) verdicts() []string {
	var out []string
	for _, seg := range r.Critical.Segments {
		line := fmt.Sprintf("**%s** (%.3f s): critical path blames %s", seg.Phase, seg.DurationS, topBlame(seg.BlameS))
		if ja := r.Journeys; ja != nil {
			for _, p := range ja.Phases {
				if p.Name == seg.Phase && p.Requests > 0 {
					line += fmt.Sprintf("; requests spent %.1f%% of their latency in %s", p.DominantPct, p.Dominant)
					break
				}
			}
		}
		if da := r.Decisions; da != nil {
			for _, p := range da.Phases {
				if p.Name != seg.Phase {
					continue
				}
				if k, n := topTally(p.Dom0); n > 0 {
					line += fmt.Sprintf("; dom0 decided %s ×%d", k, n)
				}
				if k, n := topTally(p.VM); n > 0 {
					line += fmt.Sprintf(", vm decided %s ×%d", k, n)
				}
				break
			}
		}
		out = append(out, line)
	}
	if len(out) == 0 {
		out = append(out, "no phase windows recorded")
	}
	return out
}

// topBlame names the two largest blame layers of a segment.
func topBlame(blame map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var all []kv
	for _, layer := range Layers() {
		all = append(all, kv{layer, blame[layer]})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].v > all[b].v })
	s := fmt.Sprintf("%s (%.3f s)", all[0].k, all[0].v)
	if len(all) > 1 && all[1].v > 0 {
		s += fmt.Sprintf(" over %s (%.3f s)", all[1].k, all[1].v)
	}
	return s
}

func topTally(tally map[string]int64) (string, int64) {
	var bestK string
	var bestN int64
	for _, k := range sortedKeys(tally) {
		if tally[k] > bestN {
			bestK, bestN = k, tally[k]
		}
	}
	return bestK, bestN
}

func sumSegDur(segs []CriticalSegment) float64 {
	var s float64
	for _, seg := range segs {
		s += seg.DurationS
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// peak returns the largest value of v, or 0 when none is positive.
func peak[T int32 | float64](v []T) T {
	var m T
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
