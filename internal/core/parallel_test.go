package core

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
	"adaptmr/internal/obs"
	"adaptmr/internal/workloads"
)

// profileSweep runs the full 16-pair profile sweep (the tuner's profiling
// stage and the paper's Fig 6 input) at the given worker count, with a
// tracer and metrics registry attached, and returns everything observable:
// the profiles, the evaluation count, the rendered trace bytes and the
// metrics snapshot.
func profileSweep(t *testing.T, parallelism int) ([]Profile, int, []byte, *obs.Snapshot) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 2
	cfg.VMsPerHost = 2
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	cfg.Obs.Trace = tr
	cfg.Obs.Metrics = reg
	r := NewRunner(cfg, workloads.Sort(64<<20).Job)
	r.Parallelism = parallelism
	profs, err := r.ProfilePairs(iosched.AllPairs())
	if err != nil {
		t.Fatalf("ProfilePairs(parallelism=%d): %v", parallelism, err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return profs, r.Evaluations, buf.Bytes(), reg.Snapshot()
}

// TestProfileSweepParallelByteIdentical is the pinned acceptance test for
// the evaluation pool: the 16-pair profile sweep at -parallel 4 and 8 must
// produce the same profiles, the same Evaluations count and byte-identical
// trace exports as the serial run.
func TestProfileSweepParallelByteIdentical(t *testing.T) {
	serialProfs, serialEvals, serialTrace, serialSnap := profileSweep(t, 1)
	if serialEvals != 16 {
		t.Fatalf("serial sweep ran %d evaluations, want 16", serialEvals)
	}
	for _, par := range []int{4, 8} {
		profs, evals, trace, snap := profileSweep(t, par)
		if !reflect.DeepEqual(profs, serialProfs) {
			t.Errorf("parallelism %d: profiles differ from serial", par)
		}
		if evals != serialEvals {
			t.Errorf("parallelism %d: evaluations %d, serial %d", par, evals, serialEvals)
		}
		if !bytes.Equal(trace, serialTrace) {
			t.Errorf("parallelism %d: trace bytes differ from serial (%d vs %d bytes)",
				par, len(trace), len(serialTrace))
		}
		if !reflect.DeepEqual(snap.Counters, serialSnap.Counters) {
			t.Errorf("parallelism %d: metric counters differ from serial", par)
		}
	}
}

// TestRunAllSingleFlightDedup submits the same plan many times concurrently
// (including an equivalent plan under a different scheme) and requires
// exactly one simulation.
func TestRunAllSingleFlightDedup(t *testing.T) {
	r := testRunner()
	r.Parallelism = 8
	plans := make([]Plan, 16)
	for i := range plans {
		plans[i] = Uniform(TwoPhases, cc)
	}
	plans[7] = Uniform(ThreePhases, cc) // same key as the two-phase uniform
	out, err := r.RunAll(plans)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if r.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1 (single-flight dedup)", r.Evaluations)
	}
	for i, res := range out {
		if res.Duration != out[0].Duration {
			t.Fatalf("result %d diverged: %v vs %v", i, res.Duration, out[0].Duration)
		}
	}
}

// TestRunAllSubmissionOrder checks that batched results come back in
// submission order and agree with one-at-a-time serial runs.
func TestRunAllSubmissionOrder(t *testing.T) {
	plans := []Plan{
		Uniform(TwoPhases, cc),
		NewPlan(TwoPhases, ad, cc),
		Uniform(TwoPhases, dd),
		NewPlan(TwoPhases, cc, nc),
	}
	want := make([]RunResult, len(plans))
	for i, p := range plans {
		want[i] = mustRun(t, testRunner(), p)
	}
	r := testRunner()
	r.Parallelism = 4
	got, err := r.RunAll(plans)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i := range plans {
		if got[i].Duration != want[i].Duration || got[i].SwitchStall != want[i].SwitchStall {
			t.Fatalf("plan %d (%v): batched %v/%v, serial %v/%v", i, plans[i],
				got[i].Duration, got[i].SwitchStall, want[i].Duration, want[i].SwitchStall)
		}
	}
	if r.Evaluations != len(plans) {
		t.Fatalf("evaluations = %d, want %d", r.Evaluations, len(plans))
	}
}

// TestBruteForceParallelMatchesSerial pins the tie-break: the parallel
// brute force must return the same winning plan as a serial enumeration.
func TestBruteForceParallelMatchesSerial(t *testing.T) {
	cands := []iosched.Pair{cc, ad, nc}
	serialR := testRunner()
	serialR.Parallelism = 1
	serial, err := BruteForce(serialR, TwoPhases, cands)
	if err != nil {
		t.Fatalf("serial BruteForce: %v", err)
	}
	parR := testRunner()
	parR.Parallelism = 8
	par, err := BruteForce(parR, TwoPhases, cands)
	if err != nil {
		t.Fatalf("parallel BruteForce: %v", err)
	}
	if serial.Plan.Key() != par.Plan.Key() || serial.Duration != par.Duration {
		t.Fatalf("winner diverged: serial %v (%v), parallel %v (%v)",
			serial.Plan, serial.Duration, par.Plan, par.Duration)
	}
	if serialR.Evaluations != parR.Evaluations {
		t.Fatalf("evaluations: serial %d, parallel %d", serialR.Evaluations, parR.Evaluations)
	}
}

// TestTracerAbsorbMatchesSerialRecording checks the fold primitive
// directly: recording into two private tracers and absorbing them in order
// must render byte-identically to recording everything into one tracer.
func TestTracerAbsorbMatchesSerialRecording(t *testing.T) {
	record := func(tr *obs.Tracer, base int64) {
		tr.NameProcess(base, "proc")
		tr.Span(base, 1, "cat", "span", 10, 20)
		tr.AsyncSpan(base, 1, "cat", "async", 5, 25)
		tr.Instant(base, 1, "cat", "mark", 15)
	}
	serial := obs.NewTracer()
	record(serial, 1)
	record(serial, 2)

	a, b := obs.NewTracer(), obs.NewTracer()
	record(a, 1)
	record(b, 2)
	folded := obs.NewTracer()
	folded.Absorb(a)
	folded.Absorb(b)

	var sw, fw bytes.Buffer
	if err := serial.WriteJSON(&sw); err != nil {
		t.Fatal(err)
	}
	if err := folded.WriteJSON(&fw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sw.Bytes(), fw.Bytes()) {
		t.Fatalf("folded trace differs from serial:\nserial: %s\nfolded: %s", sw.String(), fw.String())
	}
}

// TestFanRunsEveryIndexOnce pins the shared fan-out: at every worker
// count (GOMAXPROCS for <= 0, more workers than work included) each index
// runs exactly once, and one worker runs them in ascending order.
func TestFanRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, par := range []int{-1, 0, 1, 4, 2 * n} {
		var hits [n]atomic.Int32
		var order []int
		Fan(par, n, func(i int) {
			hits[i].Add(1)
			if par == 1 {
				order = append(order, i)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("par %d: index %d ran %d times", par, i, got)
			}
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("par 1: step %d ran index %d", i, got)
			}
		}
	}
	Fan(4, 0, func(int) { t.Fatal("Fan ran an index of an empty batch") })
}

// TestRunnerPoolsGoToOneEvaluationAtATime pins the Runner's pool
// hand-off: with ClusterConfig.Pool set, four workers over eight plans
// lend the pool to one evaluation at a time, so under -race no two
// evaluations share it, every result equals a run without a pool, and the
// pool ends with every request back.
func TestRunnerPoolsGoToOneEvaluationAtATime(t *testing.T) {
	var plans []Plan
	for _, p := range iosched.AllPairs()[:8] {
		plans = append(plans, Uniform(TwoPhases, p))
	}
	fresh := testRunner()
	fresh.Parallelism = 4
	want, err := fresh.RunAll(plans)
	if err != nil {
		t.Fatal(err)
	}
	pooled := testRunner()
	pooled.Parallelism = 4
	pool := cluster.NewPoolShelf(1).Take()
	pooled.ClusterConfig.Pool = pool
	got, err := pooled.RunAll(plans)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("results with a pool differ from results without")
	}
	if st := pool.Stats(); st.Gets == 0 || st.Puts != st.Gets {
		t.Errorf("pool %+v, want traffic and every request back", st)
	}
}
