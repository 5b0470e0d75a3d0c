package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"adaptmr"
	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// Live run streaming (GET /v1/stream?id=...). A /v1/run request that
// names a run_id executes with a timeseries sampler attached and a pump
// event rescheduling itself through the simulation calendar; each firing
// publishes a "sample" SSE frame with the instantaneous elevator depths,
// outstanding requests, completed volume and engine progress. When the
// run finishes, a "perf" frame carries the evaluation's engine
// self-telemetry and the terminal "result" frame carries the exact
// /v1/run response payload, so a streamed client ends up with the same
// bytes a plain POST returns.
//
// Fan-out never blocks the simulation: a subscriber that cannot keep up
// loses frames (counted, surfaced on /statusz and /metrics) rather than
// slowing the run. Late subscribers catch up from a bounded replay
// buffer; finished runs stay subscribable until evicted.
const (
	// streamPumpInterval is the simulated time between sample frames.
	streamPumpInterval = 250 * sim.Millisecond
	// replayCap bounds the frames kept for late subscribers.
	replayCap = 256
	// subscriberBuf is each subscriber's channel buffer; a full buffer
	// drops frames instead of blocking the publisher.
	subscriberBuf = 64
	// finishedCap bounds how many finished runs stay subscribable.
	finishedCap = 64
	// maxRunIDLen bounds the run_id field.
	maxRunIDLen = 64
)

// frame is one SSE event: its event name and a single-line JSON (or
// JSON-lines) payload.
type frame struct {
	event string
	data  []byte
}

// terminal reports whether this frame ends the stream.
func (f frame) terminal() bool { return f.event == "result" || f.event == "error" }

// liveRun is the pub/sub state of one streamed run.
type liveRun struct {
	id string

	mu    sync.Mutex
	rep   []frame
	subs  map[chan frame]struct{}
	drops int64  // frames lost to slow subscribers
	term  *frame // set exactly once; nil while running
	done  chan struct{}

	// explain is the run's stored /v1/explain document (JSON), set once
	// by the executing worker right before the terminal frame; nil while
	// the run is in flight or when it failed.
	explain []byte
}

func newLiveRun(id string) *liveRun {
	return &liveRun{
		id:   id,
		subs: make(map[chan frame]struct{}),
		done: make(chan struct{}),
	}
}

// publish appends a frame to the replay buffer and fans it out to every
// subscriber without blocking: a subscriber whose buffer is full loses
// this frame. After finish, publish is a no-op.
func (l *liveRun) publish(event string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.term != nil {
		return
	}
	f := frame{event: event, data: data}
	if len(l.rep) >= replayCap {
		l.rep = l.rep[1:]
	}
	l.rep = append(l.rep, f)
	for ch := range l.subs {
		select {
		case ch <- f:
		default:
			l.drops++
		}
	}
}

// finish publishes the terminal frame exactly once and wakes every
// subscriber. Later finish calls (a coalesced follower unwinding after
// the leader, an error path racing the success path) are no-ops.
func (l *liveRun) finish(event string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.term != nil {
		return
	}
	l.term = &frame{event: event, data: data}
	close(l.done)
}

// subscribe returns a snapshot of the replay buffer and a live channel.
// The caller must unsubscribe when done. A subscriber joining after the
// terminal frame gets replay only (its channel never fires; the caller
// reads terminalFrame after draining).
func (l *liveRun) subscribe() ([]frame, chan frame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch := make(chan frame, subscriberBuf)
	if l.term == nil {
		l.subs[ch] = struct{}{}
	}
	return append([]frame(nil), l.rep...), ch
}

func (l *liveRun) unsubscribe(ch chan frame) {
	l.mu.Lock()
	delete(l.subs, ch)
	l.mu.Unlock()
}

// terminalFrame returns the terminal frame, or nil while the run is
// still in flight.
func (l *liveRun) terminalFrame() *frame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// setExplain stores the run's explain document (first writer wins, so a
// coalesced follower cannot clobber the leader's document).
func (l *liveRun) setExplain(data []byte) {
	l.mu.Lock()
	if l.explain == nil {
		l.explain = data
	}
	l.mu.Unlock()
}

// explainDoc returns the stored explain document, or nil while the run
// is in flight (or when it failed before producing one).
func (l *liveRun) explainDoc() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.explain
}

func (l *liveRun) droppedFrames() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops
}

// streams is the server's live-run registry: at most finishedCap
// finished runs are retained (oldest evicted first); in-flight runs are
// never evicted.
type streams struct {
	mu           sync.Mutex
	runs         map[string]*liveRun
	finished     []string
	evictedDrops int64
}

func newStreams() *streams {
	return &streams{runs: make(map[string]*liveRun)}
}

// getOrCreate returns the run registered under id, creating one when
// absent. A finished run under the same id is replaced — reusing a
// run_id after completion starts a new stream — while an in-flight one
// is shared, which is what request coalescing needs (identical streamed
// requests single-flight onto one evaluation and one stream).
func (st *streams) getOrCreate(id string) *liveRun {
	st.mu.Lock()
	defer st.mu.Unlock()
	if l, ok := st.runs[id]; ok && l.terminalFrame() == nil {
		return l
	}
	l := newLiveRun(id)
	st.runs[id] = l
	return l
}

func (st *streams) get(id string) *liveRun {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.runs[id]
}

// noteFinished records a terminal run for bounded retention.
func (st *streams) noteFinished(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finished = append(st.finished, id)
	for len(st.finished) > finishedCap {
		old := st.finished[0]
		st.finished = st.finished[1:]
		if l, ok := st.runs[old]; ok && l.terminalFrame() != nil {
			st.evictedDrops += l.droppedFrames()
			delete(st.runs, old)
		}
	}
}

// active counts in-flight streamed runs.
func (st *streams) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, l := range st.runs {
		if l.terminalFrame() == nil {
			n++
		}
	}
	return n
}

// droppedFrames totals slow-subscriber losses across every run,
// including evicted ones.
func (st *streams) droppedFrames() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	total := st.evictedDrops
	for _, l := range st.runs {
		total += l.droppedFrames()
	}
	return total
}

// validateRunID bounds and restricts the run_id so it is safe to echo
// into URLs, logs and metrics.
func validateRunID(id string) error {
	if len(id) > maxRunIDLen {
		return badf("run_id longer than %d characters", maxRunIDLen)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return badf("run_id may only contain [A-Za-z0-9._-], got %q", id)
		}
	}
	return nil
}

// streamSample is one "sample" frame: the sampler's instantaneous
// counters plus engine progress (events fired, wall clock since the
// evaluation started).
type streamSample struct {
	RunID  string  `json:"run_id"`
	Seq    int     `json:"seq"`
	Events uint64  `json:"events"`
	WallMS float64 `json:"wall_ms"`
	analyze.LiveSample
}

// streamJourney is the "journey" frame published when a streamed run
// completes: the run's request-journey latency decomposition and its
// scheduler decision tallies, summarised.
type streamJourney struct {
	RunID     string               `json:"run_id"`
	Journeys  *obs.JourneySummary  `json:"journeys,omitempty"`
	Decisions *obs.DecisionSummary `json:"decisions,omitempty"`
}

// execStreamed executes one plan with live streaming: the wiring /v1/run
// and /v1/autotune share. It drives a fresh core.Runner directly
// (instead of the facade) so it can attach a sampler and a
// self-rescheduling pump event to the evaluating cluster; the disk cache
// is deliberately not consulted, because a cache hit has no simulation
// to stream.
//
// wire extends the evaluating cluster after the sampler attached and
// before the pump starts, and returns how many
// self-re-arming watchers it installed. The pump publishes a "sample"
// frame per streamPumpInterval of simulated time, starting at the
// evaluation's first instant so even a trivial run streams at least one
// sample, and re-arms only while model events remain beyond those
// watchers, so it never keeps a finished simulation alive.
//
// On success it publishes, in order, a "journey" frame when the result
// carries journey or decision summaries and a "perf" frame with the
// engine self-telemetry; the caller builds the terminal payload.
func (s *Server) execStreamed(ctx context.Context, cfg adaptmr.ClusterConfig, job adaptmr.JobConfig,
	plan core.Plan, lr *liveRun, wire func(*cluster.Cluster, *analyze.Sampler) int) (core.RunResult, int, error) {

	var checks *adaptmr.CheckSet
	if s.cfg.CheckInvariants {
		checks = adaptmr.NewCheckSet()
		cfg.Check = checks
	}
	run := core.NewRunner(cfg, job)
	run.Parallelism = 1 // one plan, one evaluation
	run.Context = ctx
	run.CollectPerf = true
	started := time.Now()
	run.OnEvaluation = func(_ core.Plan, cl *cluster.Cluster) {
		smp := analyze.NewSampler()
		smp.AttachCluster(cl)
		watchers := wire(cl, smp)
		eng := cl.Eng
		seq := 0
		var pump func()
		pump = func() {
			sample := streamSample{
				RunID:      lr.id,
				Seq:        seq,
				Events:     eng.EventsFired(),
				WallMS:     float64(time.Since(started).Microseconds()) / 1e3,
				LiveSample: smp.Live(eng.Now()),
			}
			seq++
			if data, err := json.Marshal(sample); err == nil {
				lr.publish("sample", data)
			}
			if eng.Pending() > watchers {
				eng.Schedule(streamPumpInterval, pump)
			}
		}
		eng.Schedule(0, pump)
	}

	res, err := run.Run(plan)
	if err == nil && checks != nil {
		checks.Finalize()
		if cerr := checks.Err(); cerr != nil {
			err = fmt.Errorf("server: invariant check failed: %w", cerr)
		}
	}
	if run.Evaluations > 0 {
		s.met.addCounter(mEvaluations, int64(run.Evaluations))
	}
	if err != nil {
		return core.RunResult{}, 0, err
	}
	if res.Journeys != nil || res.Decisions != nil {
		jf := streamJourney{RunID: lr.id, Journeys: res.Journeys, Decisions: res.Decisions}
		if data, merr := json.Marshal(jf); merr == nil {
			lr.publish("journey", data)
		}
	}
	if res.Perf != nil {
		s.publishPerf(res.Perf)
		if data, merr := json.Marshal(res.Perf); merr == nil {
			lr.publish("perf", data)
		}
	}
	return res, run.Evaluations, nil
}

// execStreamedRun is the streamed /v1/run. It executes fully
// instrumented — tracer, metrics, journey log and decision log — so
// completion publishes a "journey" frame (the run's latency
// decomposition and decision tallies, summarised) and stores the full
// explain document for GET /v1/explain?id=. The returned payload is
// built by the same encoder as the non-streamed path, so the terminal
// frame is byte-identical to a plain POST body.
func (s *Server) execStreamedRun(ctx context.Context, cfg adaptmr.ClusterConfig, job adaptmr.JobConfig,
	plan adaptmr.Plan, lr *liveRun, workload string, inputMB int64) ([]byte, error) {

	tracer := obs.NewTracer()
	journeys := obs.NewJourneyLog()
	decisions := obs.NewDecisionLog()
	cfg.Obs.Trace = tracer
	cfg.Obs.Metrics = obs.NewRegistry()
	cfg.Obs.Journeys = journeys
	cfg.Obs.Decisions = decisions
	cfg.Obs.PIDBase = 0
	// The sampler outlives the evaluation: analyze.Build finalises it into
	// the explain document's timeseries. One plan, one evaluation, so the
	// single assignment is safe.
	var smp *analyze.Sampler
	res, evaluations, err := s.execStreamed(ctx, cfg, job, plan, lr, func(_ *cluster.Cluster, sm *analyze.Sampler) int {
		smp = sm
		return 0
	})
	if err != nil {
		return nil, err
	}
	// Build and stash the explain document before the terminal frame, so a
	// client that saw "result" can immediately GET /v1/explain. Perf is
	// deliberately left out of the options: wall-clock values would make
	// the document non-deterministic.
	exp, xerr := analyze.Build(tracer, res.Metrics, smp, analyze.Options{
		PIDBase:   0,
		Workload:  workload,
		Hosts:     cfg.Hosts,
		VMs:       cfg.VMsPerHost,
		InputMB:   inputMB,
		Seed:      cfg.Seed,
		Pair:      res.Plan.String(),
		Journeys:  journeys,
		Decisions: decisions,
	})
	if xerr != nil {
		s.logger.Warn("explain document build failed", "id", lr.id, "err", xerr)
	} else if data, merr := json.Marshal(exp); merr == nil {
		lr.setExplain(data)
	}
	return encodePayload(runResponse(res, evaluations))
}

// handleStream serves GET /v1/stream?id=...: the SSE feed of one
// streamed run. Replayed frames come first, then live frames until the
// terminal frame ("result" on success, "error" otherwise). An unknown id
// answers 404.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	s.met.addCounter(mStreamRequests, 1)
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "stream requires an id query parameter")
		return
	}
	lr := s.streams.get(id)
	if lr == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no streamed run %q (start one with POST /v1/run and run_id)", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, ch := lr.subscribe()
	defer lr.unsubscribe(ch)
	for _, f := range replay {
		writeSSE(w, f)
	}
	fl.Flush()

	for {
		select {
		case f := <-ch:
			writeSSE(w, f)
			fl.Flush()
			if f.terminal() {
				return
			}
		case <-lr.done:
			// Drain frames that were buffered before the terminal frame
			// landed, then emit the terminal frame itself.
			for {
				select {
				case f := <-ch:
					writeSSE(w, f)
				default:
					if t := lr.terminalFrame(); t != nil {
						writeSSE(w, *t)
					}
					fl.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one server-sent event. Payload lines are split onto
// multiple data: fields per the SSE framing rules; clients reassemble
// them joined by newlines.
func writeSSE(w io.Writer, f frame) {
	fmt.Fprintf(w, "event: %s\n", f.event)
	for _, line := range bytes.Split(bytes.TrimRight(f.data, "\n"), []byte("\n")) {
		fmt.Fprintf(w, "data: %s\n", line)
	}
	io.WriteString(w, "\n")
}
