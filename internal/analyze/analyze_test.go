package analyze

import (
	"errors"
	"math"
	"testing"

	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

func ms(x float64) sim.Time { return sim.Time(x * float64(sim.Millisecond)) }

// syntheticTrace builds a tiny hand-computable one-host run:
//
//	job  [0,100ms], phases map [0,40], shuffle [40,70], reduce [70,100]
//	disk read  [0,10ms], write [50,60ms]
//	dom0 read  [0,15ms] (wait 5ms), vm read [0,20ms] (wait 2ms)
//	switch     [40,45ms] (stall 5ms, backlog 3)
//	net flow   [80,90ms] (1 MB, host0 → host1)
func syntheticTrace() *obs.Tracer {
	tr := obs.NewTracer()
	const clusterPID, hostPID = 1, 2
	tr.Span(clusterPID, 1, "mapred", "job:test", ms(0), ms(100), obs.I("maps", 1), obs.I("reduces", 1))
	tr.Span(clusterPID, 1, "mapred", "Ph1-map", ms(0), ms(40))
	tr.Span(clusterPID, 1, "mapred", "Ph2-shuffle", ms(40), ms(70))
	tr.Span(clusterPID, 1, "mapred", "Ph3-reduce", ms(70), ms(100))

	// Tasks on host 0, vm 0 (task TID 11).
	tr.Span(hostPID, 11, "mapred", "map0", ms(0), ms(40), obs.I("bytes_in", 1<<20))
	tr.Span(hostPID, 11, "mapred", "shuffle0", ms(40), ms(70))
	tr.Span(hostPID, 11, "mapred", "reduce0", ms(70), ms(100))

	// Disk service spans (TID 2 by convention).
	tr.Span(hostPID, 2, "disk", "read", ms(0), ms(10), obs.I("sector", 0), obs.I("sectors", 100))
	tr.Span(hostPID, 2, "disk", "write", ms(50), ms(60), obs.I("sector", 1000), obs.I("sectors", 50))

	// Elevator requests.
	tr.AsyncSpan(hostPID, 1, "io.dom0", "read", ms(0), ms(15), obs.I("sectors", 100), obs.F("wait_ms", 5))
	tr.AsyncSpan(hostPID, 10, "io.vm", "read", ms(0), ms(20), obs.I("sectors", 100), obs.F("wait_ms", 2))

	// One elevator switch and one network flow.
	tr.Span(hostPID, 1, "switch", "nd", ms(40), ms(45), obs.F("stall_ms", 5), obs.I("backlog", 3))
	tr.Span(clusterPID, 1, "net", "flow", ms(80), ms(90), obs.I("src", 0), obs.I("dst", 1), obs.I("bytes", 1<<20))
	return tr
}

func TestCriticalPathSynthetic(t *testing.T) {
	rep, err := Build(syntheticTrace(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := rep.Critical
	if cp.CoverageFrac != 1 {
		t.Fatalf("coverage = %v, want 1", cp.CoverageFrac)
	}
	if len(cp.Segments) != 3 {
		t.Fatalf("segments = %d", len(cp.Segments))
	}

	// map [0,40]: disk [0,10] → 10ms, elevator waits hidden under disk,
	// xen residue [10,20] → 10ms, cpu 20ms.
	m := cp.Segments[0]
	wantBlame(t, "map", m.BlameS, map[string]float64{
		LayerDisk: 0.010, LayerElevator: 0, LayerXen: 0.010, LayerNet: 0, LayerCPU: 0.020,
	})
	// shuffle [40,70]: disk [50,60], switch stall [40,45], cpu 15ms.
	wantBlame(t, "shuffle", cp.Segments[1].BlameS, map[string]float64{
		LayerDisk: 0.010, LayerElevator: 0.005, LayerXen: 0, LayerNet: 0, LayerCPU: 0.015,
	})
	// reduce [70,100]: net [80,90], cpu 20ms.
	wantBlame(t, "reduce", cp.Segments[2].BlameS, map[string]float64{
		LayerDisk: 0, LayerElevator: 0, LayerXen: 0, LayerNet: 0.010, LayerCPU: 0.020,
	})

	// Per-segment blame partitions the segment exactly.
	for _, seg := range cp.Segments {
		var sum float64
		for _, v := range seg.BlameS {
			sum += v
		}
		if math.Abs(sum-seg.DurationS) > 1e-9 {
			t.Fatalf("%s blame sums to %v, want %v", seg.Phase, sum, seg.DurationS)
		}
	}
	if cp.Segments[0].Task != "map0" || cp.Segments[0].Host != 0 || cp.Segments[0].VM != 0 {
		t.Fatalf("critical map task = %+v", cp.Segments[0])
	}
}

func wantBlame(t *testing.T, phase string, got, want map[string]float64) {
	t.Helper()
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Fatalf("%s blame[%s] = %v, want %v (all: %v)", phase, layer, got[layer], w, got)
		}
	}
}

func TestPhaseBreakdownSynthetic(t *testing.T) {
	rep, err := Build(syntheticTrace(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases = %d", len(rep.Phases))
	}
	mp := rep.Phases[0]
	if mp.IO["dom0"].Requests != 1 || mp.IO["vm"].Requests != 1 {
		t.Fatalf("map phase io = %+v", mp.IO)
	}
	wantMB := float64(100*512) / mb
	if mp.IO["dom0"].ReadMB != round6(wantMB) {
		t.Fatalf("dom0 read MB = %v, want %v", mp.IO["dom0"].ReadMB, wantMB)
	}
	if mp.IO["dom0"].AvgWaitMs != 5 {
		t.Fatalf("dom0 avg wait = %v", mp.IO["dom0"].AvgWaitMs)
	}
	if mp.Disk.Requests != 1 || mp.Disk.BusyFrac != 0.25 {
		t.Fatalf("map disk = %+v", mp.Disk)
	}
	if mp.Switches.Count != 0 {
		t.Fatalf("map switches = %+v", mp.Switches)
	}

	sh := rep.Phases[1]
	if sh.Switches.Count != 1 || sh.Switches.StallS != 0.005 || sh.Switches.Backlog != 3 {
		t.Fatalf("shuffle switches = %+v", sh.Switches)
	}
	if sh.Disk.Requests != 1 || sh.Disk.WrittenMB != round6(float64(50*512)/mb) {
		t.Fatalf("shuffle disk = %+v", sh.Disk)
	}
	// Seek from read end (sector 100) to write start (sector 1000).
	if sh.Disk.SeekAvgSectors != 900 {
		t.Fatalf("seek = %v, want 900", sh.Disk.SeekAvgSectors)
	}

	rd := rep.Phases[2]
	if rd.NetMB != 1 {
		t.Fatalf("reduce net MB = %v", rd.NetMB)
	}
}

func TestParseModelErrors(t *testing.T) {
	if _, err := Build(obs.NewTracer(), nil, nil, Options{}); err == nil {
		t.Fatal("empty trace should fail (no job span)")
	}
	tr := syntheticTrace()
	tr.Span(1, 1, "mapred", "job:second", ms(200), ms(300))
	if _, err := Build(tr, nil, nil, Options{}); err == nil {
		t.Fatal("two job spans should fail")
	}
	if _, err := Build(nil, nil, nil, Options{}); err == nil {
		t.Fatal("nil tracer should fail")
	}
}

func TestIntervalAlgebra(t *testing.T) {
	merged := merge([]ival{{5, 7}, {0, 2}, {1, 3}, {7, 9}})
	want := []ival{{0, 3}, {5, 9}}
	if len(merged) != len(want) {
		t.Fatalf("merge = %v", merged)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merge = %v, want %v", merged, want)
		}
	}

	inter := intersect([]ival{{0, 3}, {5, 9}}, []ival{{2, 6}, {8, 12}})
	wantI := []ival{{2, 3}, {5, 6}, {8, 9}}
	if len(inter) != len(wantI) {
		t.Fatalf("intersect = %v", inter)
	}
	for i := range wantI {
		if inter[i] != wantI[i] {
			t.Fatalf("intersect = %v, want %v", inter, wantI)
		}
	}

	sub := subtract([]ival{{0, 10}}, []ival{{2, 3}, {5, 7}})
	wantS := []ival{{0, 2}, {3, 5}, {7, 10}}
	for i := range wantS {
		if sub[i] != wantS[i] {
			t.Fatalf("subtract = %v, want %v", sub, wantS)
		}
	}

	cl := clip([]ival{{-5, 2}, {8, 20}, {30, 40}}, window{sim.Time(0), sim.Time(10)})
	wantC := []ival{{0, 2}, {8, 10}}
	if len(cl) != len(wantC) {
		t.Fatalf("clip = %v", cl)
	}
	for i := range wantC {
		if cl[i] != wantC[i] {
			t.Fatalf("clip = %v, want %v", cl, wantC)
		}
	}

	if totalDur([]ival{{0, 3}, {5, 9}}) != 7 {
		t.Fatal("totalDur")
	}
}

func TestCompareGating(t *testing.T) {
	base := Bench{
		Schema: benchSchema, Workload: "sort", Hosts: 2, VMs: 2, InputMB: 64, Seed: 1, Pair: "cc",
		MakespanS: 10,
		PhaseS:    map[string]float64{"map": 4, "shuffle": 3, "reduce": 3},
		BlameS:    map[string]float64{"disk": 6, "cpu": 4},
	}

	// Identical run passes.
	cmp, err := Compare(base, base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() {
		t.Fatalf("identical benches regressed: %+v", cmp.Deltas)
	}

	// 20% slower makespan fails a 5% gate.
	cand := base
	cand.MakespanS = 12
	cmp, err = Compare(base, cand, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Regressed() {
		t.Fatal("20% slower makespan should regress at 5% tolerance")
	}

	// ...but passes a 30% gate.
	cmp, err = Compare(base, cand, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() {
		t.Fatal("20% slower makespan should pass at 30% tolerance")
	}

	// Improvements are flagged, never gated.
	cand = base
	cand.MakespanS = 8
	cmp, _ = Compare(base, cand, 0.05)
	improved := false
	for _, d := range cmp.Deltas {
		if d.Metric == "makespan_s" {
			improved = d.Improved
		}
	}
	if cmp.Regressed() || !improved {
		t.Fatal("faster candidate should be flagged improved, not regressed")
	}

	// Tiny absolute changes under the floor never trip.
	cand = base
	cand.SwitchStallS = base.SwitchStallS + 0.004
	cmp, _ = Compare(base, cand, 0)
	if cmp.Regressed() {
		t.Fatal("sub-floor absolute change should not regress")
	}

	// Blame shifts are informational only.
	cand = base
	cand.BlameS = map[string]float64{"disk": 9, "cpu": 1}
	cmp, _ = Compare(base, cand, 0.05)
	if cmp.Regressed() {
		t.Fatal("blame changes must not gate")
	}

	// Config mismatches error instead of comparing.
	cand = base
	cand.Hosts = 4
	if _, err := Compare(base, cand, 0.05); err == nil {
		t.Fatal("host-count mismatch should error")
	}
	cand = base
	cand.Seed = 2
	if _, err := Compare(base, cand, 0.05); err == nil {
		t.Fatal("seed mismatch should error")
	}
}

// TestCompareSimEventsExact pins the event-count gate: the simulator is
// deterministic, so a candidate one event off either way regresses at any
// tolerance, and an identical count passes.
func TestCompareSimEventsExact(t *testing.T) {
	base := Bench{
		Schema: benchSchema, Workload: "sort", Hosts: 2, VMs: 2, InputMB: 64, Seed: 1, Pair: "cc",
		MakespanS: 10,
		SimEvents: 12620,
	}
	cmp, err := Compare(base, base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() {
		t.Fatalf("identical event count regressed: %+v", cmp.Deltas)
	}
	for _, off := range []int64{1, -1} {
		cand := base
		cand.SimEvents += off
		cmp, _ = Compare(base, cand, 10)
		if !cmp.Regressed() {
			t.Fatalf("candidate %+d event(s) off passed at tolerance 10: %+v", off, cmp.Deltas)
		}
	}
}

// failWriter rejects every write, standing in for a full disk or a
// closed pipe under a comparison artifact.
type failWriter struct{}

var errWriteFailed = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

// TestCompareWriteTextReportsWriteError pins that a failed write of the
// verdict table surfaces as an error rather than passing silently.
func TestCompareWriteTextReportsWriteError(t *testing.T) {
	cmp := Comparison{TolFrac: 0.05, Deltas: []Delta{{Metric: "makespan_s", Base: 1, Candidate: 1, Gated: true}}}
	if err := cmp.WriteText(failWriter{}); !errors.Is(err, errWriteFailed) {
		t.Fatalf("WriteText to a failing writer returned %v, want %v", err, errWriteFailed)
	}
}

func TestComparePerfGating(t *testing.T) {
	base := Bench{
		Schema: benchSchema, Workload: "sort", Hosts: 2, VMs: 2, InputMB: 64, Seed: 1, Pair: "cc",
		MakespanS:      10,
		WallS:          0.8,
		EventsPerSec:   900_000,
		AllocsPerEvent: 1.2,
		BytesPerEvent:  640,
		GCCycles:       3,
		GCPauseMS:      0.4,
	}
	regressedMetric := func(c Comparison, metric string) bool {
		for _, d := range c.Deltas {
			if d.Metric == metric {
				return d.Regressed
			}
		}
		t.Fatalf("metric %s missing from comparison", metric)
		return false
	}

	// Identical perf passes.
	cmp, err := Compare(base, base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() {
		t.Fatalf("identical perf benches regressed: %+v", cmp.Deltas)
	}

	// An injected allocation regression (each event chain picked up a
	// couple of extra allocs) trips the allocs/event gate.
	cand := base
	cand.AllocsPerEvent = base.AllocsPerEvent + 2
	cmp, _ = Compare(base, cand, 0.05)
	if !regressedMetric(cmp, "allocs_per_event") {
		t.Fatal("+2 allocs/event should trip the alloc gate")
	}

	// A sub-floor alloc wiggle (< allocAbsFloor) passes even at 0 relative
	// tolerance.
	cand = base
	cand.AllocsPerEvent = base.AllocsPerEvent + 0.3
	cmp, _ = Compare(base, cand, 0)
	if regressedMetric(cmp, "allocs_per_event") {
		t.Fatal("sub-floor alloc change should not trip the gate")
	}

	// The absolute ceiling trips on the candidate alone, even at a
	// tolerance wide enough to silence the relative gate…
	cand = base
	cand.AllocsPerEvent = 3.5
	cmp, _ = Compare(base, cand, 10)
	if regressedMetric(cmp, "allocs_per_event") {
		t.Fatal("relative alloc gate should be quiet at tol=10")
	}
	if !regressedMetric(cmp, "allocs_per_event_ceiling") {
		t.Fatal("3.5 allocs/event should breach the 3.0 ceiling")
	}
	// …and stays quiet just under the budget.
	cand.AllocsPerEvent = 2.8
	cmp, _ = Compare(base, cand, 10)
	if regressedMetric(cmp, "allocs_per_event_ceiling") {
		t.Fatal("2.8 allocs/event is within the 3.0 ceiling")
	}

	// events/sec: a mild slowdown (CI runner noise) passes...
	cand = base
	cand.EventsPerSec = base.EventsPerSec * 0.6
	cmp, _ = Compare(base, cand, 0.05)
	if regressedMetric(cmp, "events_per_sec") {
		t.Fatal("40% throughput dip should pass the wide gate")
	}
	// ...but a collapse trips it, regardless of the caller's tolerance.
	cand = base
	cand.EventsPerSec = base.EventsPerSec * 0.1
	cmp, _ = Compare(base, cand, 0.05)
	if !regressedMetric(cmp, "events_per_sec") {
		t.Fatal("10x throughput collapse should trip the gate")
	}
	// Faster is improvement, never regression, for a higher-is-better gate.
	cand = base
	cand.EventsPerSec = base.EventsPerSec * 10
	cmp, _ = Compare(base, cand, 0.05)
	if regressedMetric(cmp, "events_per_sec") {
		t.Fatal("faster candidate flagged as throughput regression")
	}

	// Benches without perf data (or mixed) degrade to informational: the
	// zero→nonzero jump must not gate.
	noPerf := base
	noPerf.WallS, noPerf.EventsPerSec, noPerf.AllocsPerEvent = 0, 0, 0
	noPerf.BytesPerEvent, noPerf.GCCycles, noPerf.GCPauseMS = 0, 0, 0
	cmp, _ = Compare(noPerf, base, 0.05)
	if cmp.Regressed() {
		t.Fatalf("perf-less baseline vs perf candidate must not gate: %+v", cmp.Deltas)
	}
	cmp, _ = Compare(base, noPerf, 0.05)
	if cmp.Regressed() {
		t.Fatalf("perf baseline vs perf-less candidate must not gate: %+v", cmp.Deltas)
	}

	// Wall time and GC are informational even when wildly different.
	cand = base
	cand.WallS, cand.GCCycles, cand.GCPauseMS = 100, 50, 80
	cmp, _ = Compare(base, cand, 0.05)
	if cmp.Regressed() {
		t.Fatal("wall/GC changes must not gate")
	}
}

func TestSamplerFinalizeBuckets(t *testing.T) {
	s := NewSampler()
	// Two enqueues at 50ms and 150ms, one dispatch at 250ms; completes
	// with 1 MB at 250ms.
	vm := &levelSeries{}
	vm.depth.add(ms(50), +1)
	vm.depth.add(ms(150), +1)
	vm.depth.add(ms(250), -1)
	vm.outst.add(ms(50), +1)
	vm.outst.add(ms(150), +1)
	vm.bytes.add(ms(250), 1<<20)
	s.levels["vm"] = vm
	// One disk fully busy for the second 100ms bucket.
	s.busy = [][]ival{{{int64(ms(100)), int64(ms(200))}}}

	ts := s.Finalize(0, ms(400), 10)
	if ts.IntervalS != 0.1 || ts.Samples != 5 {
		t.Fatalf("interval %v samples %d", ts.IntervalS, ts.Samples)
	}
	wantDepth := []int32{1, 2, 1, 1, 1}
	for i, w := range wantDepth {
		if ts.Depth["vm"][i] != w {
			t.Fatalf("depth = %v, want %v", ts.Depth["vm"], wantDepth)
		}
	}
	wantOut := []int32{1, 2, 2, 2, 2}
	for i, w := range wantOut {
		if ts.Outstanding["vm"][i] != w {
			t.Fatalf("outstanding = %v, want %v", ts.Outstanding["vm"], wantOut)
		}
	}
	// 1 MB completed in bucket 2 over 0.1s → 10 MB/s.
	if ts.ThroughputMBps["vm"][2] != 10 {
		t.Fatalf("throughput = %v", ts.ThroughputMBps["vm"])
	}
	if ts.DiskBusyFrac[1] != 1 || ts.DiskBusyFrac[0] != 0 || ts.DiskBusyFrac[2] != 0 {
		t.Fatalf("busy = %v", ts.DiskBusyFrac)
	}

	// Interval doubling: 400ms span with maxPoints 3 → 200ms buckets.
	ts = s.Finalize(0, ms(400), 3)
	if ts.IntervalS != 0.2 || ts.Samples != 3 {
		t.Fatalf("doubled interval %v samples %d", ts.IntervalS, ts.Samples)
	}
}
