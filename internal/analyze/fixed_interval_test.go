package analyze_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/experiments"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
	"adaptmr/internal/workloads"
)

// TestFinalizeFixedIntervalSumsToVolume runs a 2×2 sort with the Dom0
// queues under "dom0" and every VM queue under its own level, finalizes
// at the 1 s interval Fig 3 uses, and checks that each level's throughput
// series adds back up to the level's completed volume: every bucket, the
// trailing one included, is averaged over the full interval, so the
// series integrates to exactly the bytes completed.
func TestFinalizeFixedIntervalSumsToVolume(t *testing.T) {
	cc := cluster.DefaultConfig()
	cc.Hosts, cc.VMsPerHost = 2, 2
	job := workloads.Sort(64 << 20).Job

	smp := analyze.NewSampler()
	var eng *sim.Engine
	var start sim.Time
	_, err := core.Execute(context.Background(), cc, job, core.Uniform(core.TwoPhases, iosched.DefaultPair), false,
		func(cl *cluster.Cluster) {
			for hi, h := range cl.Hosts {
				smp.AttachQueue(h.Dom0Queue(), "dom0")
				for _, d := range h.Domains() {
					smp.AttachQueue(d.Queue(), fmt.Sprintf("vm%d.%d", hi, d.Index))
				}
			}
			eng, start = cl.Eng, cl.Eng.Now()
		})
	if err != nil {
		t.Fatal(err)
	}
	end := eng.Now()
	ts := smp.Finalize(start, end, sim.Second)
	live := smp.Live(end)

	if ts.IntervalS != 1 || ts.Samples != int(end.Sub(start)/sim.Second)+1 {
		t.Fatalf("interval %v s, %d samples over a %v span", ts.IntervalS, ts.Samples, end.Sub(start))
	}
	if len(live.CumMB) != 1+cc.Hosts*cc.VMsPerHost {
		t.Fatalf("levels %v, want dom0 plus one per VM", live.CumMB)
	}
	for level, cum := range live.CumMB {
		series := ts.ThroughputMBps[level]
		if len(series) != ts.Samples {
			t.Fatalf("%s: %d samples, want %d", level, len(series), ts.Samples)
		}
		sum := 0.0
		for _, v := range series {
			sum += v * ts.IntervalS
		}
		// Every bucket and the cumulative volume are rounded to 1e-6.
		if tol := float64(len(series)+1) * 1e-6; cum <= 0 || math.Abs(sum-cum) > tol {
			t.Errorf("%s: series sums to %.6f MB, completed volume %.6f MB", level, sum, cum)
		}
	}

	cfg := experiments.Quick()
	r := experiments.Fig3(cfg)
	for i, p := range r.Pairs {
		if len(r.PerVMMean[i]) != cfg.Cluster.VMsPerHost {
			t.Errorf("%v: per-VM means %v, want one per VM (%d)", p, r.PerVMMean[i], cfg.Cluster.VMsPerHost)
		}
	}
}
