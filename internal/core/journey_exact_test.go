package core

import (
	"reflect"
	"testing"

	"adaptmr/internal/check"
	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
	"adaptmr/internal/obs"
	"adaptmr/internal/workloads"
)

// TestJourneyDecompositionExact is the journey tracker's property test:
// for every completed guest request, the stage decomposition (guest
// stall/queue, ring, dom0 stall/queue, seek, rotation, transfer,
// overhead) must sum ns-exactly to the request's end-to-end latency,
// with no negative stage — across all four elevators at both levels and
// across live elevator switches. The tracker audits the same property at
// emit time and reports failures into the check invariant set, so the
// test also requires a clean violation log. Each plan runs twice: checked,
// on detect-only request pools that never reuse a request, and
// unchecked, on a recycling pool; the two must record equal journeys.
func TestJourneyDecompositionExact(t *testing.T) {
	uniform := func(name string) Plan {
		return Uniform(TwoPhases, iosched.Pair{VMM: name, VM: name})
	}
	plans := map[string]Plan{
		// Every elevator running at both queue levels.
		"cfq":          uniform(iosched.CFQ),
		"deadline":     uniform(iosched.Deadline),
		"anticipatory": uniform(iosched.Anticipatory),
		"noop":         uniform(iosched.Noop),
		// Live switches at the phase boundary, including switches at both
		// levels at once, so journeys in flight during a drain are covered.
		"switch-cc-dd": NewPlan(TwoPhases, cc, dd),
		"switch-ad-nc": NewPlan(TwoPhases, ad, nc),
	}
	for name, plan := range plans {
		name, plan := name, plan
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var runs [2][]obs.JourneyRec
			for i, checked := range []bool{true, false} {
				cfg := cluster.DefaultConfig()
				cfg.Hosts = 2
				cfg.VMsPerHost = 2
				jl := obs.NewJourneyLog()
				cfg.Obs.Journeys = jl
				var set *check.Set
				if checked {
					set = check.NewSet()
					cfg.Check = set
				}
				r := NewRunner(cfg, workloads.Sort(32<<20).Job)
				res, err := r.Run(plan)
				if err != nil {
					t.Fatalf("Run(%v), checked %v: %v", plan, checked, err)
				}
				if checked {
					set.Finalize()
					if vs := set.Violations(); len(vs) != 0 {
						t.Fatalf("journey tracker reported %d invariant violations, first: %+v", len(vs), vs[0])
					}
				}
				recs := jl.Records()
				if len(recs) == 0 {
					t.Fatalf("checked %v: run recorded no journeys", checked)
				}
				var total int64
				for _, rec := range recs {
					if rec.StageSum() != rec.Total() {
						t.Fatalf("journey %d: stages sum to %d ns, end-to-end is %d ns", rec.ID, rec.StageSum(), rec.Total())
					}
					if rec.Total() <= 0 {
						t.Fatalf("journey %d: non-positive end-to-end latency %d ns", rec.ID, rec.Total())
					}
					for st, d := range rec.Stages {
						if d < 0 {
							t.Fatalf("journey %d: stage %s negative (%d ns)", rec.ID, obs.StageNames()[st], d)
						}
					}
					total += int64(rec.Total())
				}
				sum := res.Journeys
				if sum == nil {
					t.Fatal("RunResult.Journeys missing")
				}
				if sum.Requests != int64(len(recs)) || sum.TotalNS != total {
					t.Fatalf("summary disagrees with records: %d reqs/%d ns vs %d reqs/%d ns",
						sum.Requests, sum.TotalNS, len(recs), total)
				}
				runs[i] = recs
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("journeys on a recycling pool differ from journeys on a detect-only one (%d and %d records)",
					len(runs[1]), len(runs[0]))
			}
		})
	}
}
