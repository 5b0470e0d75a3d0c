package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"adaptmr"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// readSSE parses a full SSE body into events (multi-line data fields
// reassembled joined by newlines, per the SSE spec).
func readSSE(t *testing.T, body []byte) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	var dataLines []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(dataLines) > 0 || cur.event != "" {
				cur.data = strings.Join(dataLines, "\n")
				out = append(out, cur)
			}
			cur, dataLines = sseEvent{}, nil
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			dataLines = append(dataLines, strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning SSE body: %v", err)
	}
	return out
}

// TestStreamDeliversSamplesThenIdenticalResult is the end-to-end
// contract: a streamed run emits at least one timeseries sample frame
// before its terminal result frame, the result frame's payload matches
// the POST response byte for byte, and streaming does not perturb the
// simulation (the streamed POST body equals a plain, non-streamed one).
func TestStreamDeliversSamplesThenIdenticalResult(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	plain := smallRunReq("cc")
	streamed := smallRunReq("cc")
	streamed.RunID = "run-1"

	stPlain, _, plainBody := postJSON(t, ts.URL+"/v1/run", plain)
	stStream, _, streamBody := postJSON(t, ts.URL+"/v1/run", streamed)
	if stPlain != http.StatusOK || stStream != http.StatusOK {
		t.Fatalf("statuses %d / %d: %s %s", stPlain, stStream, plainBody, streamBody)
	}
	if !bytes.Equal(plainBody, streamBody) {
		t.Errorf("streaming changed the response bytes:\n plain: %s\nstream: %s", plainBody, streamBody)
	}

	// The run already finished; the stream replays its frames and closes
	// with the terminal result.
	st, body := getBody(t, ts.URL+"/v1/stream?id=run-1")
	if st != http.StatusOK {
		t.Fatalf("/v1/stream = %d: %s", st, body)
	}
	events := readSSE(t, body)
	if len(events) == 0 {
		t.Fatal("stream yielded no events")
	}
	var samples int
	var sawPerf bool
	var result *sseEvent
	for i := range events {
		e := events[i]
		switch e.event {
		case "sample":
			if result != nil {
				t.Error("sample frame after the terminal result frame")
			}
			samples++
			var smp streamSample
			if err := json.Unmarshal([]byte(e.data), &smp); err != nil {
				t.Fatalf("sample frame is not JSON: %v\n%s", err, e.data)
			}
			if smp.RunID != "run-1" {
				t.Errorf("sample run_id = %q, want run-1", smp.RunID)
			}
		case "perf":
			sawPerf = true
		case "result":
			result = &events[i]
		}
	}
	if samples < 1 {
		t.Errorf("stream carried %d sample frames before the result, want >= 1", samples)
	}
	if !sawPerf {
		t.Error("stream carried no perf frame")
	}
	if result == nil {
		t.Fatal("stream carried no terminal result frame")
	}
	if result != &events[len(events)-1] {
		t.Error("result frame is not the stream's final event")
	}
	if got := result.data + "\n"; got != string(streamBody) {
		t.Errorf("result frame differs from POST body:\n frame: %s\n  post: %s", result.data, streamBody)
	}
}

// TestExplainEndpointAndJourneyFrame is the provenance contract of a
// streamed run: the stream carries a "journey" frame (the run's latency
// decomposition and decision tallies, summarised) before the terminal
// result, and GET /v1/explain?id= serves the stored explain document —
// with every journey's stage decomposition ns-exact — once the run
// finished. Unknown ids answer 404, a missing id 400.
func TestExplainEndpointAndJourneyFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	req := smallRunReq("cc")
	req.RunID = "exp-1"
	st, _, body := postJSON(t, ts.URL+"/v1/run", req)
	if st != http.StatusOK {
		t.Fatalf("streamed run = %d: %s", st, body)
	}

	st, sse := getBody(t, ts.URL+"/v1/stream?id=exp-1")
	if st != http.StatusOK {
		t.Fatalf("/v1/stream = %d: %s", st, sse)
	}
	var journey *streamJourney
	journeyIdx, resultIdx := -1, -1
	events := readSSE(t, sse)
	for i, e := range events {
		switch e.event {
		case "journey":
			var jf streamJourney
			if err := json.Unmarshal([]byte(e.data), &jf); err != nil {
				t.Fatalf("journey frame is not JSON: %v\n%s", err, e.data)
			}
			journey, journeyIdx = &jf, i
		case "result":
			resultIdx = i
		}
	}
	if journey == nil {
		t.Fatal("stream carried no journey frame")
	}
	if resultIdx >= 0 && journeyIdx > resultIdx {
		t.Error("journey frame arrived after the terminal result frame")
	}
	if journey.RunID != "exp-1" {
		t.Errorf("journey run_id = %q, want exp-1", journey.RunID)
	}
	if journey.Journeys == nil || journey.Journeys.Requests == 0 {
		t.Fatalf("journey frame carries no journeys: %+v", journey)
	}
	if journey.Decisions == nil {
		t.Error("journey frame carries no decision tallies")
	}

	st, doc := getBody(t, ts.URL+"/v1/explain?id=exp-1")
	if st != http.StatusOK {
		t.Fatalf("/v1/explain = %d: %s", st, doc)
	}
	var exp struct {
		Schema string `json:"schema"`
		Job    struct {
			MakespanS float64 `json:"makespan_s"`
		} `json:"job"`
		Journeys struct {
			AllExact bool `json:"all_exact"`
			Summary  struct {
				Requests int64 `json:"requests"`
			} `json:"summary"`
		} `json:"journeys"`
		Decisions json.RawMessage `json:"decisions"`
	}
	if err := json.Unmarshal(doc, &exp); err != nil {
		t.Fatalf("explain document is not JSON: %v", err)
	}
	if exp.Schema != "adaptmr-report/v1" {
		t.Errorf("explain schema = %q, want adaptmr-report/v1", exp.Schema)
	}
	if exp.Job.MakespanS <= 0 {
		t.Errorf("explain document's job makespan = %v, want > 0", exp.Job.MakespanS)
	}
	if !exp.Journeys.AllExact {
		t.Error("explain document reports a non-exact journey decomposition")
	}
	if exp.Journeys.Summary.Requests != journey.Journeys.Requests {
		t.Errorf("explain summary has %d requests, journey frame %d",
			exp.Journeys.Summary.Requests, journey.Journeys.Requests)
	}
	if len(exp.Decisions) == 0 {
		t.Error("explain document carries no decision section")
	}

	if st, body := getBody(t, ts.URL+"/v1/explain?id=nosuch"); st != http.StatusNotFound {
		t.Errorf("/v1/explain unknown id = %d: %s", st, body)
	}
	if st, body := getBody(t, ts.URL+"/v1/explain"); st != http.StatusBadRequest {
		t.Errorf("/v1/explain without id = %d: %s", st, body)
	}
}

// TestExplainDocumentIsRunReport pins that /v1/explain serves the run
// record RunReport builds: the stored document of a streamed 2×2 sort
// run under (CFQ, CFQ) decodes deep-equal to the JSON of
// adaptmr.RunReport with the journey and decision logs, once the events
// of the stream's sample pump — one per "sample" frame — are taken off
// the document's event counts.
func TestExplainDocumentIsRunReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	req := smallRunReq("cc")
	req.RunID = "pin-1"
	if st, _, body := postJSON(t, ts.URL+"/v1/run", req); st != http.StatusOK {
		t.Fatalf("streamed run = %d: %s", st, body)
	}
	st, sse := getBody(t, ts.URL+"/v1/stream?id=pin-1")
	if st != http.StatusOK {
		t.Fatalf("/v1/stream = %d: %s", st, sse)
	}
	var samples int64
	for _, e := range readSSE(t, sse) {
		if e.event == "sample" {
			samples++
		}
	}
	st, doc := getBody(t, ts.URL+"/v1/explain?id=pin-1")
	if st != http.StatusOK {
		t.Fatalf("/v1/explain = %d: %s", st, doc)
	}
	var served adaptmr.Report
	if err := json.Unmarshal(doc, &served); err != nil {
		t.Fatalf("explain document is not a report: %v", err)
	}
	served.Totals.SimEvents -= samples
	served.Bench.SimEvents -= samples

	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts, cfg.VMsPerHost = 2, 2
	rep, err := adaptmr.RunReport(cfg, adaptmr.SortBenchmark(64<<20).Job, adaptmr.DefaultPair,
		adaptmr.WithJourney(), adaptmr.WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var local adaptmr.Report
	if err := json.Unmarshal(data, &local); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, local) {
		t.Errorf("/v1/explain differs from RunReport (%d sample frames taken off):\n served bench %+v\n  local bench %+v",
			samples, served.Bench, local.Bench)
	}
}

// TestStreamWhileRunInFlight subscribes before the run executes (the
// worker is parked on the exec gate) and checks live delivery: the
// subscriber sees sample frames then the terminal result without
// polling.
func TestStreamWhileRunInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1}, func(s *Server) {
		s.testExecGate = func(string) { <-gate }
	})

	req := smallRunReq("cc")
	req.RunID = "live-1"
	type outcome struct {
		status int
		body   []byte
	}
	posted := make(chan outcome, 1)
	go func() {
		st, _, body := postJSON(t, ts.URL+"/v1/run", req)
		posted <- outcome{st, body}
	}()

	// The stream registers during prepare — before pool admission — so
	// it is subscribable while the worker is still gated.
	var resp *http.Response
	waitFor(t, "stream registered", func() bool {
		r, err := http.Get(ts.URL + "/v1/stream?id=live-1")
		if err != nil {
			return false
		}
		if r.StatusCode != http.StatusOK {
			r.Body.Close()
			return false
		}
		resp = r
		return true
	})
	defer resp.Body.Close()
	close(gate)

	events := readSSE(t, mustReadAll(t, resp))
	post := <-posted
	if post.status != http.StatusOK {
		t.Fatalf("POST = %d: %s", post.status, post.body)
	}
	var samples int
	for _, e := range events {
		if e.event == "sample" {
			samples++
		}
	}
	if samples < 1 {
		t.Errorf("live subscriber saw %d samples, want >= 1", samples)
	}
	last := events[len(events)-1]
	if last.event != "result" || last.data+"\n" != string(post.body) {
		t.Errorf("live stream terminal frame mismatch: event %q", last.event)
	}
}

func mustReadAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamClientDisconnectMidRun cancels a subscriber while the run is
// gated; the run must still complete and answer its POST normally.
func TestStreamClientDisconnectMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1}, func(s *Server) {
		s.testExecGate = func(string) { <-gate }
	})

	req := smallRunReq("cc")
	req.RunID = "dc-1"
	type outcome struct {
		status int
		body   []byte
	}
	posted := make(chan outcome, 1)
	go func() {
		st, _, body := postJSON(t, ts.URL+"/v1/run", req)
		posted <- outcome{st, body}
	}()
	waitFor(t, "stream registered", func() bool {
		st, _ := getBody(t, ts.URL+"/v1/stream?id=nope-just-checking-registry")
		_ = st
		s2, _ := http.Get(ts.URL + "/v1/stream?id=dc-1")
		if s2 == nil {
			return false
		}
		ok := s2.StatusCode == http.StatusOK
		s2.Body.Close() // immediate disconnect
		return ok
	})

	// A second subscriber that disconnects mid-stream via context cancel.
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream?id=dc-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(sub)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, _ = new(bytes.Buffer).ReadFrom(resp.Body) // ends with the cancel
	resp.Body.Close()

	close(gate)
	post := <-posted
	if post.status != http.StatusOK {
		t.Fatalf("POST after subscriber disconnects = %d: %s", post.status, post.body)
	}
	// The run's stream still terminates for fresh subscribers.
	st, body := getBody(t, ts.URL+"/v1/stream?id=dc-1")
	if st != http.StatusOK {
		t.Fatalf("post-run stream = %d", st)
	}
	events := readSSE(t, body)
	if len(events) == 0 || events[len(events)-1].event != "result" {
		t.Error("post-run stream did not end with a result frame")
	}
}

// TestStreamErrorsAndValidation covers the non-happy paths: unknown id,
// missing id, bad run_id, method mapping.
func TestStreamErrorsAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)

	if st, _ := getBody(t, ts.URL+"/v1/stream?id=never-ran"); st != http.StatusNotFound {
		t.Errorf("unknown stream id = %d, want 404", st)
	}
	if st, _ := getBody(t, ts.URL+"/v1/stream"); st != http.StatusBadRequest {
		t.Errorf("missing stream id = %d, want 400", st)
	}
	if st, _, _ := postJSON(t, ts.URL+"/v1/stream", struct{}{}); st != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stream = %d, want 405", st)
	}

	bad := smallRunReq("cc")
	bad.RunID = "spaces are invalid"
	if st, _, body := postJSON(t, ts.URL+"/v1/run", bad); st != http.StatusBadRequest {
		t.Errorf("bad run_id = %d (%s), want 400", st, body)
	}
	long := smallRunReq("cc")
	long.RunID = strings.Repeat("x", maxRunIDLen+1)
	if st, _, _ := postJSON(t, ts.URL+"/v1/run", long); st != http.StatusBadRequest {
		t.Errorf("overlong run_id accepted, want 400")
	}
}

// TestLiveRunSlowConsumerDropsFrames is the white-box fan-out contract:
// a subscriber that stops reading loses frames (counted) without ever
// blocking the publisher, while the replay buffer and terminal frame
// stay intact for everyone else.
func TestLiveRunSlowConsumerDropsFrames(t *testing.T) {
	lr := newLiveRun("slow")
	_, slow := lr.subscribe()
	defer lr.unsubscribe(slow)

	const frames = subscriberBuf + 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			lr.publish("sample", []byte(fmt.Sprintf(`{"seq":%d}`, i)))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}
	if got := lr.droppedFrames(); got != frames-subscriberBuf {
		t.Errorf("dropped = %d, want %d", got, frames-subscriberBuf)
	}
	// The slow subscriber still holds its buffered prefix in order.
	first := <-slow
	if string(first.data) != `{"seq":0}` {
		t.Errorf("slow subscriber's first frame = %s", first.data)
	}

	// finish is terminal and idempotent; publish after finish is a no-op.
	lr.finish("result", []byte(`{"ok":true}`))
	lr.finish("error", []byte(`{"error":"loser of the race"}`))
	lr.publish("sample", []byte(`{"seq":999}`))
	if tf := lr.terminalFrame(); tf == nil || tf.event != "result" {
		t.Fatalf("terminal frame = %+v, want the first finish to win", tf)
	}

	// A late subscriber gets the replay (bounded) and sees the terminal
	// frame via done, not a live channel.
	replay, late := lr.subscribe()
	defer lr.unsubscribe(late)
	if len(replay) == 0 || len(replay) > replayCap {
		t.Errorf("replay length = %d, want (0, %d]", len(replay), replayCap)
	}
	select {
	case <-lr.done:
	default:
		t.Error("done channel not closed after finish")
	}
}

// TestStreamRegistryEviction bounds the registry: finished runs beyond
// finishedCap are evicted oldest-first, their drop tallies preserved.
func TestStreamRegistryEviction(t *testing.T) {
	st := newStreams()
	for i := 0; i < finishedCap+10; i++ {
		id := fmt.Sprintf("run-%d", i)
		lr := st.getOrCreate(id)
		lr.finish("result", []byte("{}"))
		st.noteFinished(id)
	}
	if got := st.get("run-0"); got != nil {
		t.Error("oldest finished run survived eviction")
	}
	if got := st.get(fmt.Sprintf("run-%d", finishedCap+9)); got == nil {
		t.Error("newest finished run was evicted")
	}
	if got := st.active(); got != 0 {
		t.Errorf("active = %d, want 0", got)
	}
}
