// Package server implements adaptd, the tuning-as-a-service daemon: an
// HTTP JSON API over the adaptmr facade. POST /v1/run executes one job
// under an explicit phase plan, POST /v1/tune runs the paper's adaptive
// meta-scheduler, POST /v1/bruteforce the exhaustive search. GET
// /v1/stream?id=... follows a streamed run live over server-sent
// events. GET /healthz and /readyz expose liveness (is the process up)
// and readiness (is it accepting work — 503 while draining); /statusz
// and /metrics expose a JSON status page (including build info) and
// Prometheus text exposition; /debug/pprof/ is mounted when
// Config.EnablePprof is set.
//
// Every request is logged through Config.Logger (structured slog, nil
// means silent) under a per-request id, so a request's admission,
// coalescing and completion lines correlate.
//
// Requests execute on a bounded worker pool behind a bounded admission
// queue: a full queue answers 429 with Retry-After instead of queueing
// unbounded work. Identical in-flight requests — same content digest
// after normalisation — are coalesced onto a single evaluation
// (core.Group), so a thundering herd of equal tuning calls costs one
// search. Each request is bounded by a deadline (its timeout_ms, capped
// by the server maximum) that cancellation threads down into the
// simulation event loop. Shutdown drains: admission stops, admitted work
// finishes, then the base context is cancelled to abort anything still
// running.
//
// Every 200 body is produced by the same deterministic encoding as a
// local facade run, so served results are byte-comparable with local
// ones.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"adaptmr"
	"adaptmr/internal/cluster"
	"adaptmr/internal/core"
)

// Config parameterises a Server. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Workers is how many requests execute concurrently (each request
	// internally runs its evaluations on Parallelism workers). Default 2:
	// request-level concurrency multiplies evaluation-level concurrency,
	// so a small number avoids oversubscription.
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429.
	// Default 64.
	QueueDepth int
	// RequestTimeout is the default and maximum per-request execution
	// deadline; requests may ask for less via timeout_ms. Default 60 s.
	RequestTimeout time.Duration
	// Parallelism is each request's evaluation worker count
	// (adaptmr.WithParallelism). 0 means GOMAXPROCS.
	Parallelism int
	// CheckInvariants attaches the runtime correctness harness
	// (adaptmr.WithInvariantChecks) to every simulation the server runs;
	// an invariant violation fails the request with a 500.
	CheckInvariants bool
	// Logger receives the server's structured diagnostics (request
	// admission, coalescing and completion lines correlated by a
	// per-request id). Nil means no logging.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler. Off by default: profiling endpoints expose
	// internals and should be opted into (adaptd -pprof).
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	return c
}

// Server is the adaptd HTTP service. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	logger *slog.Logger

	pool    *pool
	shelf   cluster.PoolShelf // warm request pools, at most one per worker
	flight  core.Group
	met     *lockedRegistry
	streams *streams

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	start      time.Time
	reqSeq     atomic.Uint64
	build      buildJSON

	mux *http.ServeMux

	// testExecGate, when set, is called by a worker right before a task
	// executes. Tests use it to hold workers mid-task deterministically
	// (filling the queue for backpressure tests, overlapping identical
	// requests for coalescing tests). Must be set before any request.
	testExecGate func(endpoint string)
}

// New builds a Server from cfg (zero fields take defaults) and starts
// its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:     cfg,
		logger:  logger,
		met:     newLockedRegistry(),
		streams: newStreams(),
		start:   time.Now(),
		build:   readBuildInfo(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.pool = newPool(cfg.Workers, cfg.QueueDepth)
	s.shelf = cluster.NewPoolShelf(cfg.Workers)
	s.met.setGauge(mQueueCapacity, float64(cfg.QueueDepth))
	s.met.setGauge(mWorkersTotal, float64(cfg.Workers))

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/tune", s.handleTune)
	mux.HandleFunc("/v1/bruteforce", s.handleBruteforce)
	mux.HandleFunc("/v1/autotune", s.handleAutotune)
	mux.HandleFunc("/v1/stream", s.handleStream)
	mux.HandleFunc("/v1/explain", s.handleExplain)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new work is rejected (503), admitted work
// — queued and in-flight — finishes, then the base context is cancelled.
// If ctx expires before the drain completes, cancellation happens anyway
// (aborting in-flight evaluations at their next context check) and ctx's
// error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pool.drain(ctx)
	s.baseCancel()
	return err
}

// ---------------------------------------------------------------------------
// POST endpoints
// ---------------------------------------------------------------------------

// prepared is a parsed, validated, normalised request ready to execute:
// its coalescing key, its deadline, its testbed, and the execution
// closure that produces the encoded 200 payload from that testbed.
// stream, when non-nil, is the live stream this request feeds;
// servePost terminates it on every exit path so subscribers always see a
// terminal frame.
type prepared struct {
	key     string
	timeout time.Duration
	cfg     adaptmr.ClusterConfig
	exec    func(ctx context.Context, cfg adaptmr.ClusterConfig) ([]byte, error)
	stream  *liveRun
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.servePost(w, r, "run", mReqRun, func(dec *json.Decoder) (prepared, error) {
		var req RunRequest
		if err := decodeStrict(dec, &req); err != nil {
			return prepared{}, err
		}
		cfg, err := buildCluster(req.Cluster)
		if err != nil {
			return prepared{}, err
		}
		job, err := buildJob(req.Job)
		if err != nil {
			return prepared{}, err
		}
		scheme, err := buildScheme(req.Phases)
		if err != nil {
			return prepared{}, err
		}
		plan, err := buildPlan(scheme, req.Plan)
		if err != nil {
			return prepared{}, err
		}
		timeout, err := timeoutFor(req.TimeoutMS, s.cfg.RequestTimeout)
		if err != nil {
			return prepared{}, err
		}
		key, err := runKey(cfg, job, plan)
		if err != nil {
			return prepared{}, err
		}
		if req.RunID != "" {
			// Streamed run: the run_id joins the single-flight key so a
			// streamed request never coalesces with a plain one (which has
			// no stream to feed), while identical streamed requests still
			// share one evaluation and one stream.
			if err := validateRunID(req.RunID); err != nil {
				return prepared{}, err
			}
			lr := s.streams.getOrCreate(req.RunID)
			return prepared{key: key + ":stream:" + req.RunID, timeout: timeout, cfg: cfg, stream: lr,
				exec: func(ctx context.Context, cfg adaptmr.ClusterConfig) ([]byte, error) {
					return s.execStreamedRun(ctx, cfg, job, plan, lr)
				}}, nil
		}
		return prepared{key: key, timeout: timeout, cfg: cfg, exec: func(ctx context.Context, cfg adaptmr.ClusterConfig) ([]byte, error) {
			tuner := s.newTuner(ctx, cfg, job)
			res, err := tuner.RunPlan(plan)
			s.noteEvaluations(tuner)
			if err != nil {
				return nil, err
			}
			return encodePayload(runResponse(res, tuner.Evaluations()))
		}}, nil
	})
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	s.serveSearch(w, r, "tune", mReqTune)
}

func (s *Server) handleBruteforce(w http.ResponseWriter, r *http.Request) {
	s.serveSearch(w, r, "bruteforce", mReqBruteforce)
}

// serveSearch handles /v1/tune and /v1/bruteforce, which share the
// TuneRequest shape and differ only in the search they run.
func (s *Server) serveSearch(w http.ResponseWriter, r *http.Request, endpoint, counter string) {
	s.servePost(w, r, endpoint, counter, func(dec *json.Decoder) (prepared, error) {
		var req TuneRequest
		if err := decodeStrict(dec, &req); err != nil {
			return prepared{}, err
		}
		cfg, err := buildCluster(req.Cluster)
		if err != nil {
			return prepared{}, err
		}
		job, err := buildJob(req.Job)
		if err != nil {
			return prepared{}, err
		}
		scheme, err := buildScheme(req.Phases)
		if err != nil {
			return prepared{}, err
		}
		candidates, err := buildCandidates(req.Candidates)
		if err != nil {
			return prepared{}, err
		}
		timeout, err := timeoutFor(req.TimeoutMS, s.cfg.RequestTimeout)
		if err != nil {
			return prepared{}, err
		}
		key, err := tuneKey(endpoint, cfg, job, scheme, candidates)
		if err != nil {
			return prepared{}, err
		}
		return prepared{key: key, timeout: timeout, cfg: cfg, exec: func(ctx context.Context, cfg adaptmr.ClusterConfig) ([]byte, error) {
			tuner := s.newTuner(ctx, cfg, job).WithScheme(scheme).WithCandidates(candidates)
			if endpoint == "bruteforce" {
				res, err := tuner.BruteForce()
				s.noteEvaluations(tuner)
				if err != nil {
					return nil, err
				}
				return encodePayload(runResponse(res, tuner.Evaluations()))
			}
			res, err := tuner.Tune()
			s.noteEvaluations(tuner)
			if err != nil {
				return nil, err
			}
			return encodePayload(tuneResponse(res))
		}}, nil
	})
}

// newTuner builds the per-request tuner: the request's context and the
// server's parallelism.
func (s *Server) newTuner(ctx context.Context, cfg adaptmr.ClusterConfig, job adaptmr.JobConfig) *adaptmr.Tuner {
	opts := []adaptmr.Option{
		adaptmr.WithParallelism(s.cfg.Parallelism),
		adaptmr.WithContext(ctx),
	}
	if s.cfg.CheckInvariants {
		opts = append(opts, adaptmr.WithInvariantChecks())
	}
	return adaptmr.NewTuner(cfg, job, opts...)
}

func (s *Server) noteEvaluations(t *adaptmr.Tuner) {
	if n := t.Evaluations(); n > 0 {
		s.met.addCounter(mEvaluations, int64(n))
	}
}

// servePost is the shared POST pipeline: method and draining checks,
// strict body decode, prepare (parse + validate + key), single-flight
// coalescing, pool admission, error mapping and stream termination.
// Every line it logs carries the same per-request id, so one request's
// admission, coalescing and completion correlate in the log.
func (s *Server) servePost(w http.ResponseWriter, r *http.Request, endpoint, counter string,
	prepare func(*json.Decoder) (prepared, error)) {

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires POST", r.URL.Path))
		return
	}
	log := s.logger.With("rid", fmt.Sprintf("r%06d", s.reqSeq.Add(1)), "endpoint", endpoint)
	s.met.addCounter(counter, 1)
	began := time.Now()
	if s.draining.Load() {
		status := s.replyError(w, ErrDraining)
		log.Warn("request refused", "status", status, "err", ErrDraining)
		return
	}

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	p, err := prepare(dec)
	if err != nil {
		status := s.replyError(w, err)
		log.Warn("request rejected", "status", status, "err", err)
		return
	}
	log.Info("request admitted", "key", p.key, "timeout", p.timeout, "stream", p.stream != nil)

	// The leader's closure performs pool admission, so coalesced
	// followers never consume queue slots — a herd of identical requests
	// costs one slot and one evaluation. The leader runs detached from
	// any single client: a follower that disconnects does not cancel the
	// shared work.
	ch, leader := s.flight.DoChan(p.key, func() (any, error) {
		t := newTask()
		t.run = func() {
			if s.testExecGate != nil {
				s.testExecGate(endpoint)
			}
			ctx, cancel := context.WithTimeout(s.baseCtx, p.timeout)
			defer cancel()
			// The worker lends the run a warm request pool. Only a
			// completed run returns every request to it, so only its
			// pool goes back on the shelf.
			cfg := p.cfg
			cfg.Pool = s.shelf.Take()
			if t.val, t.err = p.exec(ctx, cfg); t.err == nil {
				s.shelf.Put(cfg.Pool)
			}
		}
		if err := s.pool.submit(t); err != nil {
			return nil, err
		}
		<-t.done
		return t.val, t.err
	})
	if !leader {
		s.met.addCounter(mCoalesced, 1)
		log.Info("request coalesced", "key", p.key)
	}
	res := <-ch
	s.met.observe(mRequestSeconds, requestSecondsEdges, time.Since(began).Seconds())
	if res.Err != nil {
		s.finishStream(p.stream, nil, res.Err)
		status := s.replyError(w, res.Err)
		log.Warn("request failed", "status", status, "dur_ms", durMS(began), "err", res.Err)
		return
	}
	payload := res.Val.([]byte)
	s.finishStream(p.stream, payload, nil)
	s.met.addCounter(mRespOK, 1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
	log.Info("request done", "status", http.StatusOK, "dur_ms", durMS(began), "bytes", len(payload), "leader", leader)
}

// finishStream publishes a stream's terminal frame: the exact response
// payload on success (sans the trailing newline the SSE framing would
// eat), an error document otherwise. Idempotent via liveRun.finish, so
// coalesced followers and racing error paths are harmless.
func (s *Server) finishStream(lr *liveRun, payload []byte, err error) {
	if lr == nil {
		return
	}
	if err != nil {
		data, merr := json.Marshal(errorBody{Error: err.Error()})
		if merr != nil {
			data = []byte(`{"error":"internal error"}`)
		}
		lr.finish("error", data)
	} else {
		lr.finish("result", bytesTrimNewline(payload))
	}
	s.streams.noteFinished(lr.id)
}

func bytesTrimNewline(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == '\n' {
		b = b[:len(b)-1]
	}
	return b
}

// durMS is wall time since began, in milliseconds with microsecond
// resolution (for log lines).
func durMS(began time.Time) float64 {
	return float64(time.Since(began).Microseconds()) / 1e3
}

// decodeStrict decodes exactly one JSON object, rejecting unknown fields
// and trailing data.
func decodeStrict(dec *json.Decoder, v any) error {
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badf("decoding request body: %v", err)
	}
	if dec.More() {
		return badf("request body has trailing data after the JSON object")
	}
	return nil
}

// replyError maps an execution or validation error onto the HTTP error
// contract: 400 for validation, 429 + Retry-After for a full queue, 503
// while draining, 504 when the request's deadline fired or the server
// aborted it, 500 otherwise. It returns the status it wrote so callers
// can log it.
func (s *Server) replyError(w http.ResponseWriter, err error) int {
	s.met.addCounter(mRespError, 1)
	var br badRequest
	var status int
	switch {
	case errors.As(err, &br):
		status = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		s.met.addCounter(mRejected, 1)
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		s.met.addCounter(mTimeouts, 1)
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	default:
		status = http.StatusInternalServerError
	}
	writeError(w, status, err.Error())
	return status
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(errorBody{Error: msg})
	if err != nil { // errorBody cannot fail to marshal; belt and braces
		return
	}
	w.Write(append(data, '\n'))
}

// ---------------------------------------------------------------------------
// GET endpoints
// ---------------------------------------------------------------------------

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires GET", r.URL.Path))
		return false
	}
	return true
}

// handleExplain serves GET /v1/explain?id=...: the stored explain
// document of a finished streamed run — the full analysis report plus
// the run's request-journey latency decomposition and scheduler decision
// provenance, as JSON. 404 while the run is in flight (the document is
// stored right before the terminal frame) or when the id is unknown.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "explain requires an id query parameter")
		return
	}
	lr := s.streams.get(id)
	if lr == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no streamed run %q (start one with POST /v1/run and run_id)", id))
		return
	}
	doc := lr.explainDoc()
	if doc == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("run %q has no explain document yet (still running, or it failed)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// handleHealthz is pure liveness: 200 "ok" as long as the process can
// answer HTTP at all — including while draining, so an orchestrator's
// liveness probe does not kill a pod that is gracefully finishing work.
// Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is readiness: 200 "ready" while the server admits work,
// 503 "draining" once shutdown has begun, so load balancers stop
// routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// buildJSON is the build identification block of /statusz, read once at
// construction from the binary's embedded build info.
type buildJSON struct {
	GoVersion   string `json:"go_version"`
	Path        string `json:"path,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

func readBuildInfo() buildJSON {
	out := buildJSON{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Path = bi.Main.Path
	out.Version = bi.Main.Version
	for _, set := range bi.Settings {
		switch set.Key {
		case "vcs.revision":
			out.VCSRevision = set.Value
		case "vcs.time":
			out.VCSTime = set.Value
		case "vcs.modified":
			out.VCSModified = set.Value == "true"
		}
	}
	return out
}

// statuszPayload is the /statusz JSON document.
type statuszPayload struct {
	UptimeS  float64   `json:"uptime_s"`
	Draining bool      `json:"draining"`
	Build    buildJSON `json:"build"`

	Workers struct {
		Busy  int `json:"busy"`
		Total int `json:"total"`
	} `json:"workers"`
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`

	Requests struct {
		Run        int64 `json:"run"`
		Tune       int64 `json:"tune"`
		Bruteforce int64 `json:"bruteforce"`
		Autotune   int64 `json:"autotune"`
	} `json:"requests"`
	Responses struct {
		OK    int64 `json:"ok"`
		Error int64 `json:"error"`
	} `json:"responses"`
	Rejected    int64 `json:"rejected"`
	Coalesced   int64 `json:"coalesced"`
	Timeouts    int64 `json:"timeouts"`
	Evaluations int64 `json:"evaluations"`

	Streams struct {
		Active        int   `json:"active"`
		DroppedFrames int64 `json:"dropped_frames"`
	} `json:"streams"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	var p statuszPayload
	p.UptimeS = time.Since(s.start).Seconds()
	p.Draining = s.draining.Load()
	p.Build = s.build
	p.Workers.Busy = s.pool.busyWorkers()
	p.Workers.Total = s.cfg.Workers
	p.Queue.Depth = s.pool.depth()
	p.Queue.Capacity = s.cfg.QueueDepth
	p.Requests.Run = s.met.counterValue(mReqRun)
	p.Requests.Tune = s.met.counterValue(mReqTune)
	p.Requests.Bruteforce = s.met.counterValue(mReqBruteforce)
	p.Requests.Autotune = s.met.counterValue(mReqAutotune)
	p.Responses.OK = s.met.counterValue(mRespOK)
	p.Responses.Error = s.met.counterValue(mRespError)
	p.Rejected = s.met.counterValue(mRejected)
	p.Coalesced = s.met.counterValue(mCoalesced)
	p.Timeouts = s.met.counterValue(mTimeouts)
	p.Evaluations = s.met.counterValue(mEvaluations)
	p.Streams.Active = s.streams.active()
	p.Streams.DroppedFrames = s.streams.droppedFrames()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p)
}

// handleMetrics serves the registry in Prometheus text exposition
// format, refreshing the point-in-time gauges (queue, workers, uptime,
// streams) at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	s.met.setGauge(mQueueDepth, float64(s.pool.depth()))
	s.met.setGauge(mWorkersBusy, float64(s.pool.busyWorkers()))
	s.met.setGauge(mUptime, time.Since(s.start).Seconds())
	s.met.setGauge(mStreamsActive, float64(s.streams.active()))
	s.met.setGauge(mStreamDropped, float64(s.streams.droppedFrames()))
	snap := s.met.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}
