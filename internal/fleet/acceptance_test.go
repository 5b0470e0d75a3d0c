package fleet

import (
	"os"
	"runtime"
	"testing"
	"time"

	"adaptmr/internal/check"
)

// TestAcceptanceScale is the fleet-scale acceptance run: 32 cells ×
// 8 hosts × 8 VMs (256 hosts, 2048 VMs) carrying 50 jobs under
// fair-share admission with Poisson arrivals, sharded across all cores,
// with the full invariant harness attached. It takes about 8 s of wall
// clock on 2 cores, so it only runs when FLEET_ACCEPT is set (the CI
// fleet-smoke job sets it); the regular suite exercises the same
// machinery at small scale (byte-identity, 20-job fair-share under
// check, flat live heap across cells). It logs the peak live heap next
// to wall time and events, and fails when the peak shows finished cells
// kept alive.
func TestAcceptanceScale(t *testing.T) {
	if os.Getenv("FLEET_ACCEPT") == "" {
		t.Skip("acceptance-scale scenario; set FLEET_ACCEPT=1 to run")
	}
	s := Scenario{
		Name:                 "accept",
		Seed:                 1,
		Cells:                32,
		HostsPerCell:         8,
		VMsPerHost:           8,
		Pair:                 "cc",
		Policy:               PolicyFair,
		MaxConcurrentPerCell: 2,
		Arrivals:             ArrivalSpec{Kind: "poisson", RatePerMin: 25, HorizonMS: 120_000},
		Jobs: []JobSpec{
			{ID: "sort", Benchmark: "sort", InputPerVMMB: 32, Count: 17},
			{ID: "wc", Benchmark: "wordcount", InputPerVMMB: 32, Count: 17, Weight: 2},
			{ID: "wcnc", Benchmark: "wordcount-nc", InputPerVMMB: 32, Count: 16},
		},
	}
	s = s.withDefaults()
	cs := check.NewSet()
	peak := pollLiveHeap()
	res, err := Run(s, Options{Parallelism: 0, Check: cs, Perf: true})
	peakMB := float64(peak()) / (1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cs.Finalize()
	if err := cs.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 256 || res.VMs != 2048 || len(res.Jobs) != 50 {
		t.Fatalf("scale mismatch: hosts=%d vms=%d jobs=%d", res.Hosts, res.VMs, len(res.Jobs))
	}
	t.Logf("hosts=%d vms=%d jobs=%d makespan=%.1fs events=%d wall=%.1fs eps=%.0f peak_live_heap=%.1fMB",
		res.Hosts, res.VMs, len(res.Jobs), res.Agg.MakespanS, res.SimEvents, res.WallS, res.EventsPerSec, peakMB)
	// The live heap grows with the cells in flight, one per worker: the
	// checked peak read 10.8–14.2 MB with 2 workers (7.5 MB with 1, 24 MB
	// with 4), about 6 MB per worker, so the bound allows twice that. A
	// check set that kept every finished cell read 46 MB with 2 workers.
	workers := min(runtime.GOMAXPROCS(0), s.Cells)
	if limit := 12 * float64(workers); peakMB > limit {
		t.Fatalf("peak live heap %.1f MB over %.0f MB (12 MB per worker, %d workers): finished cells are retained",
			peakMB, limit, workers)
	}
}

// pollLiveHeap samples the live heap (/gc/heap/live:bytes, what the last
// collection found live) every 5 ms on one goroutine until the returned
// stop is called; stop returns the largest sample.
func pollLiveHeap() (stop func() uint64) {
	var peak uint64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, liveHeapNow())
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(quit)
		<-done
		return max(peak, liveHeapNow())
	}
}
