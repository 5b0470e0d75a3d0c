package xen_test

import (
	"context"
	"testing"

	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/iosched"
	"adaptmr/internal/obs"
	"adaptmr/internal/workloads"
	"adaptmr/internal/xen"
)

// TestJourneyTrackerDrainsEmpty pins that a journey-traced host keeps no
// request's entry past its journey: after a 2×2 sort at 64 MB per VM
// drains, every tracker map of every host is empty, and every journey
// was recorded.
func TestJourneyTrackerDrainsEmpty(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Hosts, cfg.VMsPerHost = 2, 2
	jl := obs.NewJourneyLog()
	cfg.Obs.Journeys = jl
	var cl *cluster.Cluster
	_, err := core.Execute(context.Background(), cfg, workloads.Sort(64<<20).Job,
		core.Uniform(core.TwoPhases, iosched.DefaultPair), false, func(c *cluster.Cluster) { cl = c })
	if err != nil {
		t.Fatal(err)
	}
	if len(jl.Records()) == 0 {
		t.Fatal("run recorded no journeys")
	}
	for _, h := range cl.Hosts {
		for name, n := range xen.JourneyEntries(h) {
			if n != 0 {
				t.Errorf("host %d: journey tracker's %s map holds %d entries after the run drained", h.ID, name, n)
			}
		}
	}
}
