package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"adaptmr/internal/check"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// tinyScenario is a fast multi-cell, multi-job scenario for unit tests.
func tinyScenario() Scenario {
	s := Scenario{
		Name:         "tiny",
		Seed:         42,
		Cells:        2,
		HostsPerCell: 2,
		VMsPerHost:   2,
		Pair:         "cc",
		Policy:       PolicyFair,
		Arrivals:     ArrivalSpec{Kind: "poisson", RatePerMin: 12, HorizonMS: 30_000},
		Jobs: []JobSpec{
			{ID: "sort", Benchmark: "sort", InputPerVMMB: 32, Count: 2},
			{ID: "wc", Benchmark: "wordcount", InputPerVMMB: 32, Count: 2, Weight: 2},
		},
	}
	return s.withDefaults()
}

func TestSmokeScenarioRuns(t *testing.T) {
	res, err := Run(SmokeScenario(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Jobs), SmokeScenario().TotalJobs(); got != want {
		t.Fatalf("got %d job outcomes, want %d", got, want)
	}
	if res.Agg.MakespanS <= 0 {
		t.Fatalf("non-positive makespan %v", res.Agg.MakespanS)
	}
	if res.SimEvents <= 0 {
		t.Fatalf("no events fired")
	}
	for _, j := range res.Jobs {
		if j.DoneMS <= j.AdmitMS || j.AdmitMS < j.ArriveMS {
			t.Fatalf("job %s has inconsistent lifecycle: arrive=%d admit=%d done=%d",
				j.ID, j.ArriveMS, j.AdmitMS, j.DoneMS)
		}
	}
}

// fingerprint captures every observable byte of a run: the result JSON,
// the Chrome trace, the metrics snapshot, and the journey/decision
// summaries.
func fingerprint(t *testing.T, s Scenario, parallelism int) []byte {
	t.Helper()
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	jl := obs.NewJourneyLog()
	dl := obs.NewDecisionLog()
	res, err := Run(s, Options{
		Parallelism: parallelism,
		Obs:         obs.Sink{Trace: tr, Metrics: reg, Journeys: jl, Decisions: dl},
	})
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(jl.Summary()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(dl.Summary()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSerialShardedByteIdentity is the sharding contract: the serial
// fallback (parallelism 1) and sharded runs at 4 and 8 workers produce
// byte-identical results, traces, metrics and summaries.
func TestSerialShardedByteIdentity(t *testing.T) {
	s := tinyScenario()
	s.Cells = 4
	s.Jobs = append(s.Jobs, JobSpec{ID: "wcnc", Benchmark: "wordcount-nc", InputPerVMMB: 32, Count: 4})
	serial := fingerprint(t, s, 1)
	for _, par := range []int{4, 8} {
		if got := fingerprint(t, s, par); !bytes.Equal(serial, got) {
			t.Fatalf("parallelism %d output differs from serial fallback (%d vs %d bytes)",
				par, len(got), len(serial))
		}
	}
}

// TestRunFleetHonoursCancel pins the context path: a cancelled context
// fails the run with an error wrapping context.Canceled, serially and on
// parallel workers.
func TestRunFleetHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		_, err := Run(tinyScenario(), Options{Parallelism: par, Context: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want one wrapping context.Canceled", par, err)
		}
	}
}

// TestFairShareTwentyJobsChecked runs a 20-job fair-share scenario under
// the full runtime invariant harness (and the race detector, in CI's
// -race pass, exercising the sharded path's goroutines).
func TestFairShareTwentyJobsChecked(t *testing.T) {
	s := Scenario{
		Name:                 "fair20",
		Seed:                 11,
		Cells:                4,
		HostsPerCell:         2,
		VMsPerHost:           2,
		Pair:                 "cc",
		Policy:               PolicyFair,
		MaxConcurrentPerCell: 3,
		Arrivals:             ArrivalSpec{Kind: "poisson", RatePerMin: 30, HorizonMS: 40_000},
		Jobs: []JobSpec{
			{ID: "sort", Benchmark: "sort", InputPerVMMB: 16, Count: 7},
			{ID: "wc", Benchmark: "wordcount", InputPerVMMB: 16, Count: 7, Weight: 3},
			{ID: "wcnc", Benchmark: "wordcount-nc", InputPerVMMB: 16, Count: 6},
		},
	}
	cs := check.NewSet()
	res, err := Run(s, Options{Parallelism: 4, Check: cs})
	if err != nil {
		t.Fatal(err)
	}
	cs.Finalize()
	if err := cs.Err(); err != nil {
		t.Fatalf("invariant violations: %v", err)
	}
	if len(res.Jobs) != 20 {
		t.Fatalf("got %d jobs, want 20", len(res.Jobs))
	}
	if res.Agg.PeakConcurrency > 3 {
		t.Fatalf("admission cap violated: peak concurrency %d > 3", res.Agg.PeakConcurrency)
	}
	if res.Agg.PeakConcurrency < 2 {
		t.Fatalf("scenario never overlapped jobs (peak %d) — not a contention test", res.Agg.PeakConcurrency)
	}
}

// TestRNGStreamsPinned pins the splitmix64-derived streams: per-cell
// seeds and per-job arrival draws must never drift across refactors, or
// every committed baseline silently changes meaning.
func TestRNGStreamsPinned(t *testing.T) {
	if got, want := splitmix64(0), uint64(0xE220A8397B1DCDAF); got != want {
		t.Fatalf("splitmix64(0) = %#x, want %#x", got, want)
	}
	s := newStream(7, "arrive/sort#0")
	first := s.uint64()
	if second := s.uint64(); first == second {
		t.Fatalf("stream repeated itself: %#x", first)
	}
	if cellSeed(7, 0) == cellSeed(7, 1) {
		t.Fatal("distinct cells drew identical seeds")
	}
	if cellSeed(7, 0) == cellSeed(8, 0) {
		t.Fatal("distinct scenario seeds gave identical cell seeds")
	}

	// Pin the smoke scenario's arrival schedule (ms, expansion order).
	want := []int64{}
	for _, inst := range SmokeScenario().expand() {
		want = append(want, int64(sim.Duration(inst.arrive)/sim.Millisecond))
	}
	if len(want) != 6 {
		t.Fatalf("smoke scenario expanded to %d instances, want 6", len(want))
	}
	again := SmokeScenario().expand()
	for i, inst := range again {
		if got := int64(sim.Duration(inst.arrive) / sim.Millisecond); got != want[i] {
			t.Fatalf("instance %d arrival drifted: %d vs %d", i, got, want[i])
		}
	}
}

// TestAddingJobsDoesNotPerturbArrivals: appending a spec to a scenario
// with a pinned horizon leaves every existing instance's arrival draw
// untouched — the per-job-stream guarantee.
func TestAddingJobsDoesNotPerturbArrivals(t *testing.T) {
	s := tinyScenario()
	before := s.expand()

	grown := s
	grown.Jobs = append(append([]JobSpec(nil), s.Jobs...),
		JobSpec{ID: "extra", Benchmark: "sort", InputPerVMMB: 32, Count: 3, Weight: 1})
	after := grown.withDefaults().expand()

	byID := map[string]sim.Time{}
	for _, inst := range after {
		byID[inst.id] = inst.arrive
	}
	for _, inst := range before {
		got, ok := byID[inst.id]
		if !ok {
			t.Fatalf("instance %s vanished after growth", inst.id)
		}
		if got != inst.arrive {
			t.Fatalf("instance %s arrival perturbed by added jobs: %v vs %v", inst.id, got, inst.arrive)
		}
	}
}

func TestPolicies(t *testing.T) {
	mk := func(seq, prio int, weight float64, held int, queue string) *runningJob {
		return &runningJob{
			inst: &instance{prio: prio, weight: weight, queue: queue},
			seq:  seq, held: held,
		}
	}
	t.Run("fifo", func(t *testing.T) {
		a, b, c := mk(0, 0, 1, 0, ""), mk(1, 5, 1, 0, ""), mk(2, 5, 1, 0, "")
		if got := (fifoPolicy{}).pick(nil, []*runningJob{a, b, c}); got != b {
			t.Fatalf("fifo picked seq=%d prio=%d, want the earliest highest-priority job", got.seq, got.inst.prio)
		}
	})
	t.Run("fair", func(t *testing.T) {
		// a holds 4 slots at weight 1 (load 4); b holds 6 at weight 3
		// (load 2): b is furthest under its share.
		a, b := mk(0, 0, 1, 4, ""), mk(1, 0, 3, 6, "")
		if got := (fairPolicy{}).pick(nil, []*runningJob{a, b}); got != b {
			t.Fatalf("fair picked the wrong job (held/weight %d/%g)", got.held, got.inst.weight)
		}
	})
	t.Run("capacity", func(t *testing.T) {
		jt := &jobTracker{
			queueShare: map[string]float64{"prod": 0.7, "batch": 0.3},
			queueOrder: []string{"prod", "batch"},
			queueHeld:  map[string]int{"prod": 7, "batch": 1},
		}
		// prod usage 7/0.7 = 10, batch 1/0.3 ≈ 3.3: batch is underserved.
		a, b := mk(0, 0, 1, 0, "prod"), mk(1, 0, 1, 0, "batch")
		if got := (capacityPolicy{}).pick(jt, []*runningJob{a, b}); got != b {
			t.Fatalf("capacity picked queue %q, want the underserved batch queue", got.inst.queue)
		}
		// Elastic: when only prod has demand it gets the slot anyway.
		if got := (capacityPolicy{}).pick(jt, []*runningJob{a}); got != a {
			t.Fatal("capacity refused to lend idle capacity to the only busy queue")
		}
	})
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }},
		{"bad pair", func(s *Scenario) { s.Pair = "zz" }},
		{"bad policy", func(s *Scenario) { s.Policy = "lottery" }},
		{"no jobs", func(s *Scenario) { s.Jobs = nil }},
		{"dup ids", func(s *Scenario) { s.Jobs[1].ID = s.Jobs[0].ID }},
		{"zero input", func(s *Scenario) { s.Jobs[0].InputPerVMMB = 0 }},
		{"bad benchmark", func(s *Scenario) { s.Jobs[0].Benchmark = "terasort" }},
		{"cell out of range", func(s *Scenario) { c := 9; s.Jobs[0].Cell = &c }},
		{"negative weight", func(s *Scenario) { s.Jobs[0].Weight = -1 }},
		{"capacity without queues", func(s *Scenario) { s.Policy = PolicyCapacity }},
		{"poisson without rate", func(s *Scenario) { s.Arrivals = ArrivalSpec{Kind: "poisson"} }},
		{"trace without times", func(s *Scenario) { s.Arrivals = ArrivalSpec{Kind: "trace"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tinyScenario()
			tc.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("Validate accepted a degenerate scenario")
			}
		})
	}
	if err := tinyScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","jobs":[],"max_cnocurrent":3}`)); err == nil {
		t.Fatal("Parse accepted a misspelled field")
	}
	// window_ms is not a scenario field.
	if _, err := Parse([]byte(`{"name":"x","jobs":[],"window_ms":1000}`)); err == nil {
		t.Fatal("Parse accepted the removed window_ms field")
	}
}

func TestCapacityPolicyEndToEnd(t *testing.T) {
	s := Scenario{
		Name:         "cap",
		Seed:         3,
		Cells:        1,
		HostsPerCell: 2,
		VMsPerHost:   2,
		Pair:         "cc",
		Policy:       PolicyCapacity,
		Queues: []QueueSpec{
			{Name: "prod", Share: 0.7},
			{Name: "batch", Share: 0.3},
		},
		Jobs: []JobSpec{
			{ID: "p", Benchmark: "wordcount", InputPerVMMB: 16, Count: 2, Queue: "prod"},
			{ID: "b", Benchmark: "sort", InputPerVMMB: 16, Count: 2, Queue: "batch"},
		},
	}
	res, err := Run(s.withDefaults(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("got %d jobs, want 4", len(res.Jobs))
	}
}

// TestCapacityReleaseReplenishesGrants is the satellite-3 regression
// guard: a tight admission cap under the capacity policy with a trace
// burst (every job arriving at t=0) forces the cell through repeated
// finish→admit→dispatch cycles, so any bug in grant-budget
// replenishment on job release would strand a queued job and trip the
// cell's stall detector. The assertions pin the queueing actually
// happened (admissions serialised behind the cap) and that every job
// still completed with a consistent lifecycle, under the invariant
// harness.
func TestCapacityReleaseReplenishesGrants(t *testing.T) {
	s := Scenario{
		Name:                 "cap-release",
		Seed:                 5,
		Cells:                1,
		HostsPerCell:         2,
		VMsPerHost:           2,
		Pair:                 "cc",
		Policy:               PolicyCapacity,
		MaxConcurrentPerCell: 2,
		Arrivals:             ArrivalSpec{Kind: "trace"},
		Queues: []QueueSpec{
			{Name: "prod", Share: 0.6},
			{Name: "batch", Share: 0.4},
		},
		Jobs: []JobSpec{
			{ID: "p", Benchmark: "wordcount", InputPerVMMB: 16, Count: 4, Queue: "prod",
				ArriveMS: []int64{0, 0, 0, 0}},
			{ID: "b", Benchmark: "sort", InputPerVMMB: 16, Count: 4, Queue: "batch",
				ArriveMS: []int64{0, 0, 0, 0}},
		},
	}
	s = s.withDefaults()
	cs := check.NewSet()
	res, err := Run(s, Options{Check: cs})
	if err != nil {
		t.Fatal(err)
	}
	cs.Finalize()
	if err := cs.Err(); err != nil {
		t.Fatalf("invariant violations: %v", err)
	}
	if len(res.Jobs) != 8 {
		t.Fatalf("got %d finished jobs, want 8", len(res.Jobs))
	}
	if res.Agg.PeakConcurrency != 2 {
		t.Fatalf("peak concurrency %d, want the cap of 2", res.Agg.PeakConcurrency)
	}
	queued := 0
	for _, j := range res.Jobs {
		if j.DoneMS <= j.AdmitMS || j.AdmitMS < j.ArriveMS {
			t.Fatalf("job %s has inconsistent lifecycle: arrive=%d admit=%d done=%d",
				j.ID, j.ArriveMS, j.AdmitMS, j.DoneMS)
		}
		if j.AdmitMS > j.ArriveMS {
			queued++
		}
	}
	// 8 simultaneous arrivals against a cap of 2: at least six jobs must
	// have waited in the admission queue for a release to re-admit them.
	if queued < 6 {
		t.Fatalf("only %d jobs queued behind the cap, want >= 6", queued)
	}
}

func TestTraceArrivals(t *testing.T) {
	s := tinyScenario()
	s.Arrivals = ArrivalSpec{Kind: "trace"}
	s.Jobs = []JobSpec{
		{ID: "sort", Benchmark: "sort", InputPerVMMB: 16, Count: 2, ArriveMS: []int64{0, 5_000}},
	}
	s = s.withDefaults()
	res, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		want := map[string]int64{"sort#0": 0, "sort#1": 5_000}[j.ID]
		if j.ArriveMS != want {
			t.Fatalf("job %s arrived at %d ms, want %d", j.ID, j.ArriveMS, want)
		}
	}
}
