package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"adaptmr"
	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/control"
	"adaptmr/internal/core"
	"adaptmr/internal/sim"
)

// POST /v1/autotune executes one job under the online adaptive
// controller: no phase plan, no profiling — the controller classifies
// the live Dom0 I/O mix every policy window and switches the elevator
// pair in-run through the hysteresis gates. With a run_id the execution
// streams over GET /v1/stream?id=...: "sample" frames carry the live
// timeseries exactly as a streamed /v1/run, "decision" frames carry
// every controller evaluation (issued or held) the moment it happens,
// and the terminal "result" frame is byte-identical to the POST body.

// AutotunePolicySpec overrides online-controller policy knobs; zero
// fields keep adaptmr.DefaultOnlinePolicy values.
type AutotunePolicySpec struct {
	// StartPair boots the cluster ("cc" default); ReadPair / WritePair
	// are the regime targets.
	StartPair string `json:"start_pair,omitempty"`
	ReadPair  string `json:"read_pair,omitempty"`
	WritePair string `json:"write_pair,omitempty"`
	// WindowMS is the sampling window; MinDwellMS the minimum spacing
	// between issued switches, in simulated milliseconds (each at most
	// one simulated day, maxPolicyMS).
	WindowMS   int64 `json:"window_ms,omitempty"`
	MinDwellMS int64 `json:"min_dwell_ms,omitempty"`
	// StableWindows is the consecutive agreeing windows required before a
	// switch; MinRequests the per-window completion count below which a
	// window classifies idle.
	StableWindows int   `json:"stable_windows,omitempty"`
	MinRequests   int64 `json:"min_requests,omitempty"`
	// CostBudget bounds the modelled switch cost to a fraction of
	// MinDwell.
	CostBudget float64 `json:"cost_budget,omitempty"`
}

// AutotuneRequest executes one job under the online controller
// (POST /v1/autotune).
type AutotuneRequest struct {
	Cluster ClusterSpec         `json:"cluster"`
	Job     JobSpec             `json:"job"`
	Policy  *AutotunePolicySpec `json:"policy,omitempty"`
	// TimeoutMS caps this request's execution; 0 means the server
	// default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// RunID, when set, makes this a streamed run followable at
	// GET /v1/stream?id=<RunID> (sample + decision frames, then the
	// terminal result). Same constraints as RunRequest.RunID.
	RunID string `json:"run_id,omitempty"`
}

// AutotuneResponse is the outcome of /v1/autotune.
type AutotuneResponse struct {
	StartPair    string             `json:"start_pair"`
	FinalPair    string             `json:"final_pair"`
	Switches     int                `json:"switches"`
	Windows      int                `json:"windows"`
	Decisions    []control.Decision `json:"decisions"`
	DurationNS   int64              `json:"duration_ns"`
	DurationS    float64            `json:"duration_s"`
	SwitchStallS float64            `json:"switch_stall_s"`
	Job          JobJSON            `json:"job"`
	Evaluations  int                `json:"evaluations"`
}

// streamDecision is one "decision" SSE frame: the controller decision
// tagged with the run and its frame sequence number.
type streamDecision struct {
	RunID string `json:"run_id"`
	Seq   int    `json:"seq"`
	control.Decision
}

// buildOnlinePolicy normalises an AutotunePolicySpec onto the default
// online policy.
func buildOnlinePolicy(spec *AutotunePolicySpec) (control.Policy, error) {
	pol := adaptmr.DefaultOnlinePolicy()
	if spec == nil {
		return pol, nil
	}
	parse := func(field, code string) (adaptmr.Pair, error) {
		p, err := adaptmr.ParsePair(code)
		if err != nil {
			return p, badf("policy.%s: %v", field, err)
		}
		return p, nil
	}
	var err error
	if spec.StartPair != "" {
		if pol.StartPair, err = parse("start_pair", spec.StartPair); err != nil {
			return pol, err
		}
	}
	if spec.ReadPair != "" {
		if pol.ReadPair, err = parse("read_pair", spec.ReadPair); err != nil {
			return pol, err
		}
	}
	if spec.WritePair != "" {
		if pol.WritePair, err = parse("write_pair", spec.WritePair); err != nil {
			return pol, err
		}
	}
	if spec.WindowMS < 0 || spec.MinDwellMS < 0 || spec.StableWindows < 0 ||
		spec.MinRequests < 0 || spec.CostBudget < 0 {
		return pol, badf("policy fields must be non-negative")
	}
	// Bounded before the conversion to nanoseconds, which would wrap.
	if spec.WindowMS > maxPolicyMS {
		return pol, badf("policy.window_ms must be at most %d, got %d", maxPolicyMS, spec.WindowMS)
	}
	if spec.MinDwellMS > maxPolicyMS {
		return pol, badf("policy.min_dwell_ms must be at most %d, got %d", maxPolicyMS, spec.MinDwellMS)
	}
	if spec.WindowMS > 0 {
		pol.Window = sim.Duration(spec.WindowMS) * sim.Millisecond
	}
	if spec.MinDwellMS > 0 {
		pol.MinDwell = sim.Duration(spec.MinDwellMS) * sim.Millisecond
	}
	if spec.StableWindows > 0 {
		pol.StableWindows = spec.StableWindows
	}
	if spec.MinRequests > 0 {
		pol.MinRequests = spec.MinRequests
	}
	if spec.CostBudget > 0 {
		pol.CostBudget = spec.CostBudget
	}
	return pol, nil
}

// autotuneKey is the single-flight key: the testbed's content digest
// (core.EvalDigest) plus every policy knob that shapes the controller's
// behaviour.
func autotuneKey(cfg adaptmr.ClusterConfig, job adaptmr.JobConfig, pol control.Policy) (string, error) {
	d, err := core.EvalDigest(cfg, job, adaptmr.UniformPlan(adaptmr.TwoPhases, pol.StartPair))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("autotune:%s:%s>%s/%s:w%d:d%d:s%d:m%d:b%g",
		d, pol.StartPair.Code(), pol.ReadPair.Code(), pol.WritePair.Code(),
		int64(pol.Window), int64(pol.MinDwell), pol.StableWindows,
		pol.MinRequests, pol.CostBudget), nil
}

func (s *Server) handleAutotune(w http.ResponseWriter, r *http.Request) {
	s.servePost(w, r, "autotune", mReqAutotune, func(dec *json.Decoder) (prepared, error) {
		var req AutotuneRequest
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
		pol, err := buildOnlinePolicy(req.Policy)
		if err != nil {
			return prepared{}, err
		}
		timeout, err := timeoutFor(req.TimeoutMS, s.cfg.RequestTimeout)
		if err != nil {
			return prepared{}, err
		}
		key, err := autotuneKey(cfg, job, pol)
		if err != nil {
			return prepared{}, err
		}
		if req.RunID == "" {
			return prepared{key: key, timeout: timeout, cfg: cfg, exec: func(ctx context.Context, cfg adaptmr.ClusterConfig) ([]byte, error) {
				return s.execAutotune(ctx, cfg, job, pol)
			}}, nil
		}
		if err := validateRunID(req.RunID); err != nil {
			return prepared{}, err
		}
		lr := s.streams.getOrCreate(req.RunID)
		return prepared{key: key + ":stream:" + req.RunID, timeout: timeout, cfg: cfg, stream: lr,
			exec: func(ctx context.Context, cfg adaptmr.ClusterConfig) ([]byte, error) {
				return s.execStreamedAutotune(ctx, cfg, job, pol, lr)
			}}, nil
	})
}

// execAutotune executes one job under the online controller through the
// facade: one online run, so the request always costs exactly one
// evaluation.
func (s *Server) execAutotune(ctx context.Context, cfg adaptmr.ClusterConfig,
	job adaptmr.JobConfig, pol control.Policy) ([]byte, error) {

	opts := []adaptmr.Option{adaptmr.WithOnlineControl(pol), adaptmr.WithContext(ctx)}
	if s.cfg.CheckInvariants {
		opts = append(opts, adaptmr.WithInvariantChecks())
	}
	res, err := adaptmr.RunOnline(cfg, job, opts...)
	s.met.addCounter(mEvaluations, 1)
	if err != nil {
		return nil, err
	}
	return encodePayload(autotuneResponse(res))
}

// execStreamedAutotune is the streamed /v1/autotune: the online run
// RunOnline executes (control.Run), with the sample pump and the
// decision publisher wired in. The controller's OnDecision hook publishes
// a "decision" frame per evaluated window the instant the simulation
// produces it — interleaved with the periodic "sample" frames in
// simulated-time order.
func (s *Server) execStreamedAutotune(ctx context.Context, cfg adaptmr.ClusterConfig,
	job adaptmr.JobConfig, pol control.Policy, lr *liveRun) ([]byte, error) {

	cfg.Check = s.checkSet()
	samples := pump(lr)
	res, run, err := control.Run(ctx, cfg, job, pol, true,
		func(cl *cluster.Cluster, smp *analyze.Sampler, ctrl *control.Controller) {
			seq := 0
			ctrl.OnDecision = func(d control.Decision) {
				sd := streamDecision{RunID: lr.id, Seq: seq, Decision: d}
				seq++
				if data, err := json.Marshal(sd); err == nil {
					lr.publish("decision", data)
				}
			}
			samples(cl, smp)
		})
	if err := s.publishEvaluation(lr, cfg.Check, run, err); err != nil {
		return nil, err
	}
	return encodePayload(autotuneResponse(res))
}

// autotuneResponse shapes an online run, which is one evaluation, into
// the /v1/autotune payload; both paths share it so a streamed run's
// terminal frame is byte-identical to a plain POST body.
func autotuneResponse(res adaptmr.OnlineResult) AutotuneResponse {
	decisions := res.Decisions
	if decisions == nil {
		decisions = []control.Decision{}
	}
	return AutotuneResponse{
		StartPair:    res.StartPairCode,
		FinalPair:    res.FinalPairCode,
		Switches:     res.Switches,
		Windows:      res.Windows,
		Decisions:    decisions,
		DurationNS:   int64(res.Job.Duration),
		DurationS:    res.Job.Duration.Seconds(),
		SwitchStallS: res.SwitchStall.Seconds(),
		Job:          jobJSON(res.Job),
		Evaluations:  1,
	}
}
