package main

import (
	"sync"

	"adaptmr"
	"adaptmr/internal/analyze"
	"adaptmr/internal/block"
	"adaptmr/internal/cluster"
	"adaptmr/internal/netsim"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// hookCounts accumulates one cluster's simulated activity through the
// simulator's public hooks. Every hook is chained onto whatever the
// cluster already installed, never replacing it. Totals are integer
// nanoseconds and counts, so summing clusters in any order is exact.
type hookCounts struct {
	diskBusy, diskSeek sim.Duration
	enqueued, merged   int64
	flows, netBytes    int64
}

// attach subscribes the counters to every disk, block queue and the
// network of cl.
func (c *hookCounts) attach(cl *cluster.Cluster) {
	prevFlow := cl.Net.OnFlowDone
	cl.Net.OnFlowDone = func(f *netsim.Flow) {
		if prevFlow != nil {
			prevFlow(f)
		}
		c.flows++
		c.netBytes += int64(f.Bytes())
	}
	for _, h := range cl.Hosts {
		d := h.Disk()
		overhead := d.Config().Overhead
		prevSvc := d.OnService
		d.OnService = func(r *block.Request, position, transfer sim.Duration) {
			if prevSvc != nil {
				prevSvc(r, position, transfer)
			}
			c.diskBusy += position + transfer + overhead
		}
		prevDetail := d.OnServiceDetail
		d.OnServiceDetail = func(r *block.Request, seek, rot, transfer sim.Duration) {
			if prevDetail != nil {
				prevDetail(r, seek, rot, transfer)
			}
			c.diskSeek += seek
		}
		queues := []*block.Queue{h.Dom0Queue()}
		for _, dom := range h.Domains() {
			queues = append(queues, dom.Queue())
		}
		for _, q := range queues {
			q.OnEnqueue(func(*block.Request) { c.enqueued++ })
			q.OnMerge(func(_, _ *block.Request) { c.merged++ })
		}
	}
}

// hookSet hands out one hookCounts per cluster; clusters may run on
// different goroutines.
type hookSet struct {
	mu   sync.Mutex
	sets []*hookCounts
}

func (s *hookSet) attach(cl *cluster.Cluster) {
	c := &hookCounts{}
	c.attach(cl)
	s.mu.Lock()
	s.sets = append(s.sets, c)
	s.mu.Unlock()
}

// total sums every cluster's counts. Call once the runs have returned.
func (s *hookSet) total() hookCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t hookCounts
	for _, c := range s.sets {
		t.diskBusy += c.diskBusy
		t.diskSeek += c.diskSeek
		t.enqueued += c.enqueued
		t.merged += c.merged
		t.flows += c.flows
		t.netBytes += c.netBytes
	}
	return t
}

// newSinks returns the hooks pass's observation: journeys, decision log
// and metrics.
func newSinks() obs.Sink {
	return obs.Sink{
		Journeys:  obs.NewJourneyLog(),
		Decisions: obs.NewDecisionLog(),
		Metrics:   obs.NewRegistry(),
	}
}

// simLayers turns the hooks pass's counts, journeys and decision tallies
// into the simulated per-layer metrics.
func simLayers(out map[string]float64, h hookCounts, j *obs.JourneySummary, d *obs.DecisionLog) {
	out["disk.busy_s"] = h.diskBusy.Seconds()
	out["disk.seek_share"] = ratio(float64(h.diskSeek), float64(h.diskBusy))
	out["block.merge_ratio"] = ratio(float64(h.merged), float64(h.enqueued))
	out["netsim.flows"] = float64(h.flows)
	out["netsim.mb"] = float64(h.netBytes) / (1 << 20)
	if j != nil {
		stage := func(names ...string) float64 {
			var ns int64
			for _, n := range names {
				ns += j.StageNS[n]
			}
			return sim.Duration(ns).Seconds()
		}
		out["block.guest_queue_s"] = stage("guest_queue")
		out["block.dom0_queue_s"] = stage("dom0_queue")
		out["block.switch_stall_s"] = stage("guest_stall", "dom0_stall")
		out["xen.ring_s"] = stage("ring")
	}
	count := func(k obs.DecisionKind) float64 {
		return float64(d.Count("vm", k) + d.Count("dom0", k))
	}
	out["iosched.antic_hit_ratio"] = ratio(count(obs.DecAnticHit), count(obs.DecAnticArm))
	out["iosched.cfq_resume_ratio"] = ratio(count(obs.DecCFQResume), count(obs.DecCFQIdle))
}

// addCritPath adds a report's critical-path blame per layer.
func addCritPath(out map[string]float64, rep *analyze.Report) {
	for layer, s := range rep.Critical.BlameS {
		out["critpath."+layer+"_s"] += s
	}
}

// addPhases adds a job's simulated phase durations.
func addPhases(out map[string]float64, j adaptmr.JobResult) {
	out["mapred.map_s"] += j.MapsDoneAt.Sub(j.Start).Seconds()
	out["mapred.shuffle_s"] += j.ShuffleDoneAt.Sub(j.MapsDoneAt).Seconds()
	out["mapred.reduce_s"] += j.Done.Sub(j.ShuffleDoneAt).Seconds()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
