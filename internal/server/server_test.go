package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptmr"
)

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

// testCluster is the small testbed every server test runs: 2 hosts ×
// 2 VMs keeps a single evaluation in the tens of milliseconds.
var testCluster = ClusterSpec{Hosts: 2, VMsPerHost: 2}

func smallRunReq(plan ...string) RunRequest {
	return RunRequest{Cluster: testCluster, Job: JobSpec{Bench: "sort", InputMB: 64}, Plan: plan}
}

func smallTuneReq(candidates ...string) TuneRequest {
	return TuneRequest{Cluster: testCluster, Job: JobSpec{Bench: "sort", InputMB: 64}, Candidates: candidates}
}

// newTestServer boots a Server (mutate allows installing the exec gate
// before any request) behind httptest.
func newTestServer(t *testing.T, cfg Config, mutate func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(s)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// localRunPayload produces the serial-facade bytes for a run request,
// through the same builders and encoder the live handler uses.
func localRunPayload(t *testing.T, req RunRequest) []byte {
	t.Helper()
	cfg, err := buildCluster(req.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	job, err := buildJob(req.Job)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := buildScheme(req.Phases)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(scheme, req.Plan)
	if err != nil {
		t.Fatal(err)
	}
	tuner := adaptmr.NewTuner(cfg, job, adaptmr.WithParallelism(1))
	res, err := tuner.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodePayload(runResponse(res, tuner.Evaluations()))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// localTunePayload is localRunPayload for /v1/tune, returning the
// payload plus the search's evaluation count.
func localTunePayload(t *testing.T, req TuneRequest) ([]byte, int) {
	t.Helper()
	cfg, err := buildCluster(req.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	job, err := buildJob(req.Job)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := buildScheme(req.Phases)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := buildCandidates(req.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	tuner := adaptmr.NewTuner(cfg, job, adaptmr.WithParallelism(1)).WithScheme(scheme).WithCandidates(cands)
	res, err := tuner.Tune()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodePayload(tuneResponse(res))
	if err != nil {
		t.Fatal(err)
	}
	return payload, tuner.Evaluations()
}

// ---------------------------------------------------------------------------
// Determinism: served bytes == serial facade bytes, under concurrency
// ---------------------------------------------------------------------------

func TestServedResponsesMatchSerialFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 2, Parallelism: 2}, nil)

	runA := smallRunReq("cc")
	runB := smallRunReq("ad", "cc")
	tune := smallTuneReq("cc", "ad")

	wantRunA := localRunPayload(t, runA)
	wantRunB := localRunPayload(t, runB)
	wantTune, _ := localTunePayload(t, tune)

	type shot struct {
		path string
		body any
		want []byte
	}
	shots := []shot{
		{"/v1/run", runA, wantRunA},
		{"/v1/run", runB, wantRunB},
		{"/v1/tune", tune, wantTune},
	}

	// Three rounds of all three in parallel: mixed concurrent traffic,
	// every 200 byte-identical to the serial facade.
	var wg sync.WaitGroup
	errs := make(chan string, 9)
	for round := 0; round < 3; round++ {
		for i, sh := range shots {
			wg.Add(1)
			go func(round, i int, sh shot) {
				defer wg.Done()
				status, _, got := postJSON(t, ts.URL+sh.path, sh.body)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("round %d shot %d: status %d: %s", round, i, status, got)
					return
				}
				if !bytes.Equal(got, sh.want) {
					errs <- fmt.Sprintf("round %d shot %d (%s): served bytes differ from serial facade\n got: %s\nwant: %s",
						round, i, sh.path, got, sh.want)
				}
			}(round, i, sh)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// ---------------------------------------------------------------------------
// Coalescing: identical simultaneous requests share one evaluation
// ---------------------------------------------------------------------------

func TestIdenticalInFlightRequestsCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1}, func(s *Server) {
		s.testExecGate = func(string) { <-gate }
	})

	req := smallTuneReq("cc", "ad")
	want, wantEvals := localTunePayload(t, req)

	const n = 4
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, bodies[i] = postJSON(t, ts.URL+"/v1/tune", req)
		}(i)
	}

	// The leader's task is parked on the gate; wait until the other
	// three have registered as followers, then let the work run once.
	waitFor(t, "3 coalesced followers", func() bool {
		return s.met.counterValue(mCoalesced) == n-1
	})
	close(gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("request %d: body differs from serial facade", i)
		}
	}
	// Single-flight: the evaluation counter shows exactly one search's
	// worth of work for the four requests.
	if got := s.met.counterValue(mEvaluations); got != int64(wantEvals) {
		t.Errorf("evaluations counter = %d, want %d (one coalesced search)", got, wantEvals)
	}
	if got := s.flight.InFlight(); got != 0 {
		t.Errorf("in-flight keys after completion = %d, want 0", got)
	}
}

// ---------------------------------------------------------------------------
// Backpressure: full queue answers 429 + Retry-After
// ---------------------------------------------------------------------------

func TestQueueFullAnswers429WithRetryAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, func(s *Server) {
		s.testExecGate = func(string) { <-gate }
	})

	reqA := smallRunReq("cc")
	reqB := smallRunReq("dd")
	reqC := smallRunReq("nn")

	type outcome struct {
		status int
		body   []byte
	}
	results := make(chan outcome, 2)
	// A occupies the only worker (parked on the gate).
	go func() {
		st, _, body := postJSON(t, ts.URL+"/v1/run", reqA)
		results <- outcome{st, body}
	}()
	waitFor(t, "worker busy on A", func() bool { return s.pool.busyWorkers() == 1 })
	// B fills the only queue slot.
	go func() {
		st, _, body := postJSON(t, ts.URL+"/v1/run", reqB)
		results <- outcome{st, body}
	}()
	waitFor(t, "queue holding B", func() bool { return s.pool.depth() == 1 })

	// C finds worker busy and queue full: backpressure.
	status, hdr, body := postJSON(t, ts.URL+"/v1/run", reqC)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d (%s), want 429", status, body)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("429 body is not an error document: %s", body)
	}
	if got := s.met.counterValue(mRejected); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// Admitted work still completes once the gate opens.
	close(gate)
	for i := 0; i < 2; i++ {
		if out := <-results; out.status != http.StatusOK {
			t.Errorf("admitted request answered %d: %s", out.status, out.body)
		}
	}
}

// ---------------------------------------------------------------------------
// Graceful shutdown: drain in-flight, reject new
// ---------------------------------------------------------------------------

func TestShutdownDrainsInFlightAndRejectsNew(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1}, func(s *Server) {
		s.testExecGate = func(string) { <-gate }
	})

	req := smallRunReq("cc")
	want := localRunPayload(t, req)

	type outcome struct {
		status int
		body   []byte
	}
	inflight := make(chan outcome, 1)
	go func() {
		st, _, body := postJSON(t, ts.URL+"/v1/run", req)
		inflight <- outcome{st, body}
	}()
	waitFor(t, "worker busy", func() bool { return s.pool.busyWorkers() == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining flag", func() bool { return s.draining.Load() })

	// While draining: readiness flips (liveness stays up — the process
	// is healthy, just not routable), new work is refused.
	if st, body := getBody(t, ts.URL+"/readyz"); st != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Errorf("readyz while draining: %d %q, want 503 draining", st, body)
	}
	if st, body := getBody(t, ts.URL+"/healthz"); st != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz while draining: %d %q, want 200 ok (liveness is not readiness)", st, body)
	}
	if st, _, body := postJSON(t, ts.URL+"/v1/run", smallRunReq("dd")); st != http.StatusServiceUnavailable {
		t.Errorf("new request while draining answered %d (%s), want 503", st, body)
	}

	// The in-flight request is not dropped: it completes with the full
	// deterministic payload, and only then does Shutdown return.
	close(gate)
	out := <-inflight
	if out.status != http.StatusOK {
		t.Fatalf("in-flight request answered %d: %s", out.status, out.body)
	}
	if !bytes.Equal(out.body, want) {
		t.Error("drained response differs from serial facade bytes")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Per-request deadline
// ---------------------------------------------------------------------------

func TestRequestTimeoutAnswers504(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	s, ts := newTestServer(t, Config{Workers: 1}, nil)

	req := smallRunReq("cc")
	req.Job.InputMB = 512 // big enough that 1 ms always fires mid-run
	req.TimeoutMS = 1
	status, _, body := postJSON(t, ts.URL+"/v1/run", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("1 ms deadline answered %d (%s), want 504", status, body)
	}
	if got := s.met.counterValue(mTimeouts); got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// Validation and method mapping
// ---------------------------------------------------------------------------

func TestValidationErrorsAnswer400(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)

	bad := []any{
		RunRequest{Cluster: testCluster, Plan: []string{"zz"}},
		RunRequest{Cluster: testCluster, Plan: nil},
		RunRequest{Cluster: testCluster, Plan: []string{"cc", "ad", "dd"}},
		RunRequest{Cluster: testCluster, Plan: []string{"cc"}, Phases: 5},
		RunRequest{Cluster: ClusterSpec{Hosts: 100}, Plan: []string{"cc"}},
		RunRequest{Cluster: testCluster, Job: JobSpec{Bench: "teragen"}, Plan: []string{"cc"}},
		RunRequest{Cluster: testCluster, Plan: []string{"cc"}, TimeoutMS: -1},
		map[string]any{"plan": []string{"cc"}, "warp_factor": 9},
	}
	for i, b := range bad {
		status, _, body := postJSON(t, ts.URL+"/v1/run", b)
		if status != http.StatusBadRequest {
			t.Errorf("bad[%d]: status %d (%s), want 400", i, status, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("bad[%d]: body is not an error document: %s", i, body)
		}
	}

	if status, _, _ := postJSON(t, ts.URL+"/v1/tune",
		TuneRequest{Cluster: testCluster, Candidates: []string{"cc", "cc"}}); status != http.StatusBadRequest {
		t.Errorf("duplicate candidates: status %d, want 400", status)
	}
}

func TestMethodChecks(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)

	if st, _ := getBody(t, ts.URL+"/v1/run"); st != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run = %d, want 405", st)
	}
	if st, _, _ := postJSON(t, ts.URL+"/healthz", struct{}{}); st != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", st)
	}
	if st, body := getBody(t, ts.URL+"/healthz"); st != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("GET /healthz = %d %q, want 200 ok", st, body)
	}
	if st, body := getBody(t, ts.URL+"/readyz"); st != http.StatusOK || string(body) != "ready\n" {
		t.Errorf("GET /readyz = %d %q, want 200 ready", st, body)
	}
}

// ---------------------------------------------------------------------------
// Introspection: /statusz, /metrics, evaluation tallies
// ---------------------------------------------------------------------------

func TestStatuszMetricsAndCacheStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	req := smallRunReq("cc")
	// Two identical sequential requests (so not coalesced): each one
	// simulates, and the deterministic simulation gives both the same
	// result.
	st1, _, body1 := postJSON(t, ts.URL+"/v1/run", req)
	st2, _, body2 := postJSON(t, ts.URL+"/v1/run", req)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("statuses %d / %d: %s %s", st1, st2, body1, body2)
	}
	var r1, r2 RunResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Evaluations != 1 || r2.Evaluations != 1 {
		t.Errorf("evaluations = %d then %d, want 1 each", r1.Evaluations, r2.Evaluations)
	}
	if r1.DurationNS != r2.DurationNS {
		t.Errorf("repeated run changed the duration: %d vs %d", r1.DurationNS, r2.DurationNS)
	}

	// /statusz
	st, body := getBody(t, ts.URL+"/statusz")
	if st != http.StatusOK {
		t.Fatalf("/statusz = %d: %s", st, body)
	}
	var sp statuszPayload
	if err := json.Unmarshal(body, &sp); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, body)
	}
	if sp.Requests.Run != 2 || sp.Responses.OK != 2 || sp.Evaluations != 2 {
		t.Errorf("/statusz tallies: %+v", sp)
	}
	if sp.Workers.Total != 1 || sp.Queue.Capacity != 64 {
		t.Errorf("/statusz shape: workers %+v queue %+v", sp.Workers, sp.Queue)
	}
	if sp.Build.GoVersion == "" {
		t.Errorf("/statusz build info missing go_version: %+v", sp.Build)
	}

	// /metrics: Prometheus text exposition with the contract series.
	st, body = getBody(t, ts.URL+"/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics = %d", st)
	}
	text := string(body)
	for _, needle := range []string{
		"# TYPE server_requests_run counter",
		"server_requests_run 2",
		"# TYPE server_queue_capacity gauge",
		"server_queue_capacity 64",
		"# TYPE runner_evaluations_total counter",
		"runner_evaluations_total 2",
		"# TYPE server_request_seconds histogram",
		`server_request_seconds_bucket{le="+Inf"} 2`,
		"server_request_seconds_count 2",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("/metrics missing %q", needle)
		}
	}
}
