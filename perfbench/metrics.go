package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are printed by an untraced run (--trace 0), on every
// workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"allocs_per_event", "count", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"sim_makespan_s", "s", "lower"},
	{"job_p95_s", "s", "lower"},
}

// layers are the repository's modules, named after their package under
// internal/. CPU samples and allocations are charged to them.
var layers = []string{
	"sim", "disk", "iosched", "block", "xen", "guestio", "hdfs", "mapred",
	"netsim", "cpusim", "cluster", "core", "fleet", "control", "analyze",
	"obs", "server",
}

// perLayer are printed by a traced run (--trace 1), on every workload; a
// metric a workload does not exercise reads 0 (README.md says which).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range append(append([]string{}, layers...), "gc", "other") {
		out = append(out, metricDef{"cpu_share." + l, "%", "lower"})
	}
	for _, l := range append(append([]string{}, layers...), "other") {
		out = append(out, metricDef{"alloc_mb." + l, "MB", "lower"})
	}
	return append(out, []metricDef{
		{"disk.busy_s", "s", "lower"},
		{"disk.seek_share", "ratio", "lower"},
		{"block.guest_queue_s", "s", "lower"},
		{"block.dom0_queue_s", "s", "lower"},
		{"block.switch_stall_s", "s", "lower"},
		{"block.merge_ratio", "ratio", "higher"},
		{"xen.ring_s", "s", "lower"},
		{"iosched.antic_hit_ratio", "ratio", "higher"},
		{"iosched.cfq_resume_ratio", "ratio", "higher"},
		{"netsim.flows", "count", "lower"},
		{"netsim.mb", "MB", "lower"},
		{"mapred.map_s", "s", "lower"},
		{"mapred.shuffle_s", "s", "lower"},
		{"mapred.reduce_s", "s", "lower"},
		{"critpath.disk_s", "s", "lower"},
		{"critpath.elevator_s", "s", "lower"},
		{"critpath.xen_s", "s", "lower"},
		{"critpath.net_s", "s", "lower"},
		{"critpath.cpu_s", "s", "lower"},
		{"core.evaluations", "count", "lower"},
		{"core.eval_ms_p50", "ms", "lower"},
		{"core.pool_busy_frac", "ratio", "higher"},
		{"core.adaptive_gain_pct", "%", "higher"},
		{"fleet.mean_wait_s", "s", "lower"},
		{"fleet.peak_concurrency", "count", "higher"},
		{"fleet.overlap_pct", "%", "lower"},
		{"control.windows", "count", "lower"},
		{"control.switches", "count", "lower"},
		{"control.held", "count", "lower"},
		{"server.coalesced", "count", "lower"},
		{"server.rejected", "count", "lower"},
		{"server.run_p50_ms", "ms", "lower"},
		{"server.run_p90_ms", "ms", "lower"},
		{"server.run_samples", "count", "higher"},
		{"server.autotune_p50_ms", "ms", "lower"},
		{"server.autotune_p90_ms", "ms", "lower"},
		{"server.autotune_samples", "count", "higher"},
		{"server.req_per_s", "1/s", "higher"},
		{"trace.overhead_pct", "%", "lower"},
	}...)
}()

// median returns the middle value of xs (the mean of the middle two for
// an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// heapAllocs returns the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap returns the heap the last garbage collection found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak of liveHeap, polled every few milliseconds
// by one goroutine that stop ends and waits for.
type heapSampler struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	h.reset()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.note(liveHeap())
			}
		}
	}()
	return h
}

// note raises the peak to v.
func (h *heapSampler) note(v uint64) {
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset starts a new peak window at the current live heap.
func (h *heapSampler) reset() { h.peak.Store(liveHeap()) }

// peakMB is the window's peak so far, in MB.
func (h *heapSampler) peakMB() float64 {
	h.note(liveHeap())
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}
