package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"adaptmr"
	"adaptmr/internal/sim"
)

// smokePolicySpec mirrors adaptmr.SmokeOnlinePolicy for the test
// cluster's seconds-long jobs: at the default ten-second dwell the
// paper-scale policy never switches inside a smoke run.
func smokePolicySpec() *AutotunePolicySpec {
	return &AutotunePolicySpec{
		WindowMS:      250,
		MinDwellMS:    1000,
		StableWindows: 2,
		CostBudget:    0.1,
	}
}

// TestAutotuneEndpoint is the /v1/autotune contract on the smoke sort
// job: CFQ boot, two issued switches (read regime into the anticipatory
// Dom0 pair, write regime back), a full decision log, and a finished
// job — byte-deterministic, so the assertions pin exact values.
func TestAutotuneEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	req := AutotuneRequest{
		Cluster: testCluster,
		Job:     JobSpec{Bench: "sort", InputMB: 64},
		Policy:  smokePolicySpec(),
	}
	st, _, body := postJSON(t, ts.URL+"/v1/autotune", req)
	if st != http.StatusOK {
		t.Fatalf("/v1/autotune = %d: %s", st, body)
	}
	var resp AutotuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if resp.StartPair != "cc" || resp.FinalPair != "cc" {
		t.Errorf("pair trajectory %s -> %s, want cc -> cc", resp.StartPair, resp.FinalPair)
	}
	if resp.Switches != 2 {
		t.Errorf("switches = %d, want 2 (decisions: %+v)", resp.Switches, resp.Decisions)
	}
	if resp.Windows == 0 || len(resp.Decisions) == 0 {
		t.Errorf("controller idle: %d windows, %d decisions", resp.Windows, len(resp.Decisions))
	}
	if resp.DurationS <= 0 || resp.Job.DurationS <= 0 {
		t.Errorf("job did not run: duration %.3f, job duration %.3f", resp.DurationS, resp.Job.DurationS)
	}
	issued := 0
	for _, d := range resp.Decisions {
		if d.Issued {
			issued++
		}
	}
	if issued != resp.Switches {
		t.Errorf("decision log carries %d issued switches, response says %d", issued, resp.Switches)
	}
}

// TestAutotuneHugeCostBudget: a cost_budget whose product with the dwell
// leaves the int64 range admits every switch, so 1e300 answers the same
// body as 1e9 (two switches on the smoke sort), not a run that holds
// every window on cost.
func TestAutotuneHugeCostBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	post := func(budget float64) []byte {
		pol := smokePolicySpec()
		pol.CostBudget = budget
		st, _, body := postJSON(t, ts.URL+"/v1/autotune", AutotuneRequest{
			Cluster: testCluster,
			Job:     JobSpec{Bench: "sort", InputMB: 64},
			Policy:  pol,
		})
		if st != http.StatusOK {
			t.Fatalf("cost_budget %g: /v1/autotune = %d: %s", budget, st, body)
		}
		return body
	}
	want := post(1e9)
	var resp AutotuneResponse
	if err := json.Unmarshal(want, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Switches != 2 {
		t.Fatalf("cost_budget 1e9: switches = %d, want 2", resp.Switches)
	}
	if got := post(1e300); !bytes.Equal(got, want) {
		t.Fatalf("cost_budget 1e300 body differs from 1e9's:\n%s\nwant\n%s", got, want)
	}
}

// TestAutotuneStreamOrdersDecisionFrames is the satellite-6 frame
// contract: a streamed autotune run interleaves "decision" frames with
// the periodic "sample" frames in simulated-time order, every decision
// frame precedes the terminal result, sequence numbers ascend without
// gaps, and the result frame's payload equals the POST body byte for
// byte.
func TestAutotuneStreamOrdersDecisionFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	req := AutotuneRequest{
		Cluster: testCluster,
		Job:     JobSpec{Bench: "sort", InputMB: 64},
		Policy:  smokePolicySpec(),
		RunID:   "tune-1",
	}
	st, _, postBody := postJSON(t, ts.URL+"/v1/autotune", req)
	if st != http.StatusOK {
		t.Fatalf("/v1/autotune = %d: %s", st, postBody)
	}
	stS, body := getBody(t, ts.URL+"/v1/stream?id=tune-1")
	if stS != http.StatusOK {
		t.Fatalf("/v1/stream = %d: %s", stS, body)
	}
	events := readSSE(t, body)
	var decisions, samples int
	var result *sseEvent
	nextSeq := 0
	for i := range events {
		e := events[i]
		switch e.event {
		case "decision":
			if result != nil {
				t.Error("decision frame after the terminal result frame")
			}
			var d streamDecision
			if err := json.Unmarshal([]byte(e.data), &d); err != nil {
				t.Fatalf("decision frame is not JSON: %v\n%s", err, e.data)
			}
			if d.RunID != "tune-1" {
				t.Errorf("decision run_id = %q, want tune-1", d.RunID)
			}
			if d.Seq != nextSeq {
				t.Errorf("decision seq = %d, want %d (frames reordered or dropped)", d.Seq, nextSeq)
			}
			nextSeq++
			decisions++
		case "sample":
			if result != nil {
				t.Error("sample frame after the terminal result frame")
			}
			samples++
		case "result":
			result = &events[i]
		}
	}
	if decisions == 0 {
		t.Error("stream carried no decision frames")
	}
	if samples == 0 {
		t.Error("stream carried no sample frames")
	}
	if result == nil {
		t.Fatal("stream carried no terminal result frame")
	}
	if result != &events[len(events)-1] {
		t.Error("result frame is not the stream's final event")
	}
	if got := result.data + "\n"; got != string(postBody) {
		t.Errorf("result frame differs from POST body:\n frame: %s\n  post: %s", result.data, postBody)
	}
}

// autotuneValidationCases are malformed /v1/autotune requests, each of
// which must answer 400 before anything simulates.
func autotuneValidationCases() []struct {
	name string
	req  AutotuneRequest
} {
	return []struct {
		name string
		req  AutotuneRequest
	}{
		{"bad start pair", AutotuneRequest{Cluster: testCluster,
			Job:    JobSpec{Bench: "sort", InputMB: 64},
			Policy: &AutotunePolicySpec{StartPair: "zz"}}},
		{"bad read pair", AutotuneRequest{Cluster: testCluster,
			Job:    JobSpec{Bench: "sort", InputMB: 64},
			Policy: &AutotunePolicySpec{ReadPair: "a"}}},
		{"negative window", AutotuneRequest{Cluster: testCluster,
			Job:    JobSpec{Bench: "sort", InputMB: 64},
			Policy: &AutotunePolicySpec{WindowMS: -1}}},
		// In nanoseconds these wrap: to a negative window that the
		// default replaced, and to a 448µs dwell.
		{"window beyond bound", AutotuneRequest{Cluster: testCluster,
			Job:    JobSpec{Bench: "sort", InputMB: 64},
			Policy: &AutotunePolicySpec{WindowMS: 9300000000000}}},
		{"dwell beyond bound", AutotuneRequest{Cluster: testCluster,
			Job:    JobSpec{Bench: "sort", InputMB: 64},
			Policy: &AutotunePolicySpec{MinDwellMS: 18446744073710}}},
		{"bad run id", AutotuneRequest{Cluster: testCluster,
			Job:   JobSpec{Bench: "sort", InputMB: 64},
			RunID: "has spaces"}},
		{"unknown bench", AutotuneRequest{Cluster: testCluster,
			Job: JobSpec{Bench: "nope", InputMB: 64}}},
	}
}

// TestAutotuneValidation: malformed policies answer 400 before anything
// simulates.
func TestAutotuneValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	for _, tc := range autotuneValidationCases() {
		t.Run(tc.name, func(t *testing.T) {
			st, _, body := postJSON(t, ts.URL+"/v1/autotune", tc.req)
			if st != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", st, body)
			}
			if !bytes.Contains(body, []byte("error")) {
				t.Errorf("error body missing error field: %s", body)
			}
		})
	}
}

// TestAutotuneIsRunOnline pins that /v1/autotune serves the run
// adaptmr.RunOnline executes: for sort and wordcount on the 2×2/64 MB
// testbed, under the smoke and the default policy, the plain and the
// streamed bodies are byte-equal to each other and to the payload of a
// local RunOnline with the same policy.
func TestAutotuneIsRunOnline(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts, cfg.VMsPerHost = 2, 2
	for _, bench := range []struct {
		name string
		wl   adaptmr.Workload
	}{
		{"sort", adaptmr.SortBenchmark(64 << 20)},
		{"wordcount", adaptmr.WordCountBenchmark(64 << 20)},
	} {
		for _, pc := range []struct {
			name string
			spec *AutotunePolicySpec
			pol  adaptmr.OnlinePolicy
		}{
			{"smoke", smokePolicySpec(), adaptmr.SmokeOnlinePolicy()},
			{"default", nil, adaptmr.DefaultOnlinePolicy()},
		} {
			t.Run(bench.name+"/"+pc.name, func(t *testing.T) {
				res, err := adaptmr.RunOnline(cfg, bench.wl.Job, adaptmr.WithOnlineControl(pc.pol))
				if err != nil {
					t.Fatal(err)
				}
				want, err := encodePayload(autotuneResponse(res))
				if err != nil {
					t.Fatal(err)
				}
				req := AutotuneRequest{
					Cluster: testCluster,
					Job:     JobSpec{Bench: bench.name, InputMB: 64},
					Policy:  pc.spec,
				}
				st, _, plain := postJSON(t, ts.URL+"/v1/autotune", req)
				if st != http.StatusOK {
					t.Fatalf("plain /v1/autotune = %d: %s", st, plain)
				}
				req.RunID = "same-" + bench.name + "-" + pc.name
				st, _, streamed := postJSON(t, ts.URL+"/v1/autotune", req)
				if st != http.StatusOK {
					t.Fatalf("streamed /v1/autotune = %d: %s", st, streamed)
				}
				if !bytes.Equal(plain, streamed) {
					t.Errorf("streamed body differs from plain:\nstreamed: %s\n   plain: %s", streamed, plain)
				}
				if !bytes.Equal(plain, want) {
					t.Errorf("plain body differs from RunOnline's:\n   plain: %s\n    want: %s", plain, want)
				}
			})
		}
	}
}

// FuzzPolicySpec feeds arbitrary /v1/autotune bodies through the
// handler's decoding: decodeStrict, the policy builder, the timeout, the
// cluster and job builders and the coalescing key. Nothing may panic, an
// accepted non-zero window_ms or min_dwell_ms must come back unchanged
// from the policy (a value that wraps on its way to nanoseconds fails),
// so must an accepted cost_budget, and an accepted timeout lies within
// the server default.
func FuzzPolicySpec(f *testing.F) {
	seed := func(req AutotuneRequest) {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(AutotuneRequest{Cluster: testCluster, Job: JobSpec{Bench: "sort", InputMB: 64},
		Policy: smokePolicySpec()})
	huge := smokePolicySpec()
	huge.CostBudget = 1e300 // × the dwell in ns, beyond int64
	seed(AutotuneRequest{Cluster: testCluster, Job: JobSpec{Bench: "sort", InputMB: 64},
		Policy: huge})
	for _, tc := range autotuneValidationCases() {
		seed(tc.req)
	}
	const def = time.Minute
	f.Fuzz(func(t *testing.T, body []byte) {
		var req AutotuneRequest
		if err := decodeStrict(json.NewDecoder(bytes.NewReader(body)), &req); err != nil {
			return
		}
		pol, err := buildOnlinePolicy(req.Policy)
		if err != nil {
			return
		}
		if spec := req.Policy; spec != nil {
			for _, c := range []struct {
				name string
				ms   int64
				got  sim.Duration
			}{{"window", spec.WindowMS, pol.Window}, {"min_dwell", spec.MinDwellMS, pol.MinDwell}} {
				if c.ms != 0 && (c.got%sim.Millisecond != 0 || int64(c.got/sim.Millisecond) != c.ms) {
					t.Fatalf("policy.%s_ms %d came back as %v", c.name, c.ms, c.got)
				}
			}
			if spec.CostBudget != 0 && pol.CostBudget != spec.CostBudget {
				t.Fatalf("policy.cost_budget %g came back as %g", spec.CostBudget, pol.CostBudget)
			}
		}
		if d, err := timeoutFor(req.TimeoutMS, def); err == nil && (d <= 0 || d > def) {
			t.Fatalf("timeout_ms %d resolved to %v, want within (0, %v]", req.TimeoutMS, d, def)
		}
		cfg, err := buildCluster(req.Cluster)
		if err != nil {
			return
		}
		job, err := buildJob(req.Job)
		if err != nil {
			return
		}
		if _, err := autotuneKey(cfg, job, pol); err != nil {
			t.Fatalf("accepted request has no coalescing key: %v", err)
		}
	})
}
