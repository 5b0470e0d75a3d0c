package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"adaptmr"
	"adaptmr/internal/core"
	"adaptmr/internal/workloads"
)

// ---------------------------------------------------------------------------
// Request schema
// ---------------------------------------------------------------------------

// Request limits. Bounds keep a single API call from asking for an
// absurdly large simulation; they are generous compared to the paper's
// 4×4×512 MB testbed.
const (
	maxHosts      = 64
	maxVMsPerHost = 64
	maxDomains    = 512 // hosts × vms_per_host
	maxInputMB    = 1 << 16
	maxBodyBytes  = 1 << 20
	maxPolicyMS   = 86_400_000 // policy.window_ms and min_dwell_ms: one simulated day
)

// ClusterSpec selects the simulated testbed. Zero fields take the
// paper's defaults (4 hosts × 4 VMs, seed 1); every other knob of
// cluster.Config keeps its library default.
type ClusterSpec struct {
	Hosts      int   `json:"hosts,omitempty"`
	VMsPerHost int   `json:"vms_per_host,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
}

// JobSpec selects the workload. Zero fields default to the 512 MB sort
// benchmark.
type JobSpec struct {
	// Bench is one of "sort", "wordcount", "wordcount-nc".
	Bench string `json:"bench,omitempty"`
	// InputMB is the input volume per datanode VM, in MB.
	InputMB int64 `json:"input_mb,omitempty"`
}

// RunRequest executes one job under an explicit phase plan
// (POST /v1/run).
type RunRequest struct {
	Cluster ClusterSpec `json:"cluster"`
	Job     JobSpec     `json:"job"`
	// Plan is the scheduler pair per phase, as pair codes ("cc", "ad",
	// "(anticipatory, deadline)" …). One entry means the same pair for
	// every phase; otherwise the length must equal Phases.
	Plan []string `json:"plan"`
	// Phases is the plan scheme: 2 (default) or 3.
	Phases int `json:"phases,omitempty"`
	// TimeoutMS caps this request's execution; 0 means the server
	// default, and values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// RunID, when set, makes this a streamed run: its live timeseries
	// frames are followable at GET /v1/stream?id=<RunID> while the POST
	// is in flight, and the stream's terminal frame carries this
	// response's exact payload. At most 64 characters of [A-Za-z0-9._-];
	// reuse an id only after its run finished.
	RunID string `json:"run_id,omitempty"`
}

// TuneRequest runs the adaptive meta-scheduler (POST /v1/tune), and —
// with the same shape — the exhaustive search (POST /v1/bruteforce).
type TuneRequest struct {
	Cluster ClusterSpec `json:"cluster"`
	Job     JobSpec     `json:"job"`
	// Phases is the plan scheme: 2 (default) or 3.
	Phases int `json:"phases,omitempty"`
	// Candidates restricts the candidate pairs (codes); empty means all
	// 16 pair configurations.
	Candidates []string `json:"candidates,omitempty"`
	TimeoutMS  int64    `json:"timeout_ms,omitempty"`
}

// ---------------------------------------------------------------------------
// Response schema — the JSON mirror of the payloads the CLIs print
// ---------------------------------------------------------------------------

// PlanJSON is a phase plan in API form.
type PlanJSON struct {
	Phases int `json:"phases"`
	// Pairs is one pair code per phase.
	Pairs []string `json:"pairs"`
	// Display is the plan's printed form, repeated pairs shown as the
	// paper's "0" (no switch issued) — exactly what the CLIs print.
	Display string `json:"display"`
	// Switches counts the switch commands the plan issues.
	Switches int `json:"switches"`
}

// JobJSON summarises one executed job.
type JobJSON struct {
	Name                    string  `json:"name"`
	DurationS               float64 `json:"duration_s"`
	NumMaps                 int     `json:"num_maps"`
	NumReduces              int     `json:"num_reduces"`
	Waves                   float64 `json:"waves"`
	MapS                    float64 `json:"map_s"`
	ShuffleS                float64 `json:"shuffle_s"`
	ReduceS                 float64 `json:"reduce_s"`
	NonConcurrentShufflePct float64 `json:"non_concurrent_shuffle_pct"`
}

// RunResponse is the outcome of /v1/run and /v1/bruteforce's winning
// plan.
type RunResponse struct {
	Plan         PlanJSON `json:"plan"`
	DurationNS   int64    `json:"duration_ns"`
	DurationS    float64  `json:"duration_s"`
	SwitchStallS float64  `json:"switch_stall_s"`
	Job          JobJSON  `json:"job"`
	// Evaluations is how many distinct simulations this request consumed;
	// a coalesced follower reports its leader's count.
	Evaluations int `json:"evaluations"`
}

// RefRunJSON is a reference run (default or best-single) inside a tuning
// response.
type RefRunJSON struct {
	Plan      PlanJSON `json:"plan"`
	DurationS float64  `json:"duration_s"`
}

// PhaseAssignmentJSON is one phase of the chosen plan.
type PhaseAssignmentJSON struct {
	Phase int    `json:"phase"`
	Pair  string `json:"pair"`
	// Switch reports whether entering this phase issues the elevator
	// switch command (false for phase 0 and repeated pairs — the
	// paper's 0 entry).
	Switch bool `json:"switch"`
}

// ProfileJSON is one candidate pair's profiled per-phase durations.
type ProfileJSON struct {
	Pair     string  `json:"pair"`
	TotalS   float64 `json:"total_s"`
	MapS     float64 `json:"map_s"`
	ShuffleS float64 `json:"shuffle_s"`
	ReduceS  float64 `json:"reduce_s"`
}

// TuneResponse is the meta-scheduler's outcome for /v1/tune.
type TuneResponse struct {
	Plan       PlanJSON              `json:"plan"`
	PhasePlan  []PhaseAssignmentJSON `json:"phase_plan"`
	DurationNS int64                 `json:"duration_ns"`
	DurationS  float64               `json:"duration_s"`

	Default    RefRunJSON `json:"default"`
	BestSingle RefRunJSON `json:"best_single"`

	ImprovementOverDefaultPct    float64 `json:"improvement_over_default_pct"`
	ImprovementOverBestSinglePct float64 `json:"improvement_over_best_single_pct"`
	FellBack                     bool    `json:"fell_back"`

	Profiles    []ProfileJSON `json:"profiles"`
	Evaluations int           `json:"evaluations"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Normalisation and validation
// ---------------------------------------------------------------------------

// badRequest marks a validation failure (mapped to 400).
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return badRequest{msg: fmt.Sprintf(format, args...)}
}

// buildCluster normalises a ClusterSpec into a full cluster config.
func buildCluster(spec ClusterSpec) (adaptmr.ClusterConfig, error) {
	cfg := adaptmr.DefaultClusterConfig()
	if spec.Hosts != 0 {
		cfg.Hosts = spec.Hosts
	}
	if spec.VMsPerHost != 0 {
		cfg.VMsPerHost = spec.VMsPerHost
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if cfg.Hosts < 1 || cfg.Hosts > maxHosts {
		return cfg, badf("cluster.hosts must be in [1, %d], got %d", maxHosts, cfg.Hosts)
	}
	if cfg.VMsPerHost < 1 || cfg.VMsPerHost > maxVMsPerHost {
		return cfg, badf("cluster.vms_per_host must be in [1, %d], got %d", maxVMsPerHost, cfg.VMsPerHost)
	}
	if cfg.Hosts*cfg.VMsPerHost > maxDomains {
		return cfg, badf("cluster asks for %d VMs total, limit is %d", cfg.Hosts*cfg.VMsPerHost, maxDomains)
	}
	return cfg, nil
}

// buildJob normalises a JobSpec into a workload job config.
func buildJob(spec JobSpec) (adaptmr.JobConfig, error) {
	inputMB := spec.InputMB
	if inputMB == 0 {
		inputMB = 512
	}
	if inputMB < 1 || inputMB > maxInputMB {
		return adaptmr.JobConfig{}, badf("job.input_mb must be in [1, %d], got %d", maxInputMB, inputMB)
	}
	name := spec.Bench
	if name == "" {
		name = "sort"
	}
	wl, err := workloads.ByName(name, inputMB<<20)
	if err != nil {
		return adaptmr.JobConfig{}, badf("job.bench %q unknown (want sort, wordcount or wordcount-nc)", spec.Bench)
	}
	return wl.Job, nil
}

// buildScheme validates the phases field.
func buildScheme(phases int) (adaptmr.Scheme, error) {
	switch phases {
	case 0, 2:
		return adaptmr.TwoPhases, nil
	case 3:
		return adaptmr.ThreePhases, nil
	default:
		return 0, badf("phases must be 2 or 3, got %d", phases)
	}
}

// buildPlan parses and normalises the plan codes against the scheme.
func buildPlan(scheme adaptmr.Scheme, codes []string) (adaptmr.Plan, error) {
	if len(codes) == 0 {
		return adaptmr.Plan{}, badf("plan must name at least one scheduler pair")
	}
	pairs := make([]adaptmr.Pair, 0, len(codes))
	for i, code := range codes {
		p, err := adaptmr.ParsePair(code)
		if err != nil {
			return adaptmr.Plan{}, badf("plan[%d]: %v", i, err)
		}
		pairs = append(pairs, p)
	}
	if len(pairs) == 1 {
		return adaptmr.UniformPlan(scheme, pairs[0]), nil
	}
	if len(pairs) != scheme.Phases() {
		return adaptmr.Plan{}, badf("plan has %d pairs, want 1 or %d (phases)", len(pairs), scheme.Phases())
	}
	return adaptmr.NewPlan(scheme, pairs...), nil
}

// buildCandidates parses the candidate restriction; empty means all 16.
func buildCandidates(codes []string) ([]adaptmr.Pair, error) {
	if len(codes) == 0 {
		return nil, nil
	}
	out := make([]adaptmr.Pair, 0, len(codes))
	seen := make(map[adaptmr.Pair]bool, len(codes))
	for i, code := range codes {
		p, err := adaptmr.ParsePair(code)
		if err != nil {
			return nil, badf("candidates[%d]: %v", i, err)
		}
		if seen[p] {
			return nil, badf("candidates[%d]: pair %s repeated", i, p.Code())
		}
		seen[p] = true
		out = append(out, p)
	}
	return out, nil
}

// timeoutFor resolves a request's timeout against the server's default
// and maximum (both = def): 0 → def, negative → error, above def →
// clamped.
func timeoutFor(ms int64, def time.Duration) (time.Duration, error) {
	if ms < 0 {
		return 0, badf("timeout_ms must be non-negative, got %d", ms)
	}
	// Compare in milliseconds: a huge ms would wrap when converted.
	if ms == 0 || ms > def.Milliseconds() {
		return def, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// ---------------------------------------------------------------------------
// Coalescing keys
// ---------------------------------------------------------------------------

// runKey is the single-flight key of a /v1/run request: the content
// digest (core.EvalDigest) of the (cluster, job, plan) triple, which
// captures everything that determines the outcome. Requests that
// normalise to the same digest coalesce.
func runKey(cfg adaptmr.ClusterConfig, job adaptmr.JobConfig, plan adaptmr.Plan) (string, error) {
	d, err := core.EvalDigest(cfg, job, plan)
	if err != nil {
		return "", err
	}
	return "run:" + d, nil
}

// tuneKey is the single-flight key of a /v1/tune or /v1/bruteforce
// request: the content digest (core.EvalDigest) of the testbed plus the
// search parameters (scheme, candidate set) and the endpoint.
func tuneKey(endpoint string, cfg adaptmr.ClusterConfig, job adaptmr.JobConfig,
	scheme adaptmr.Scheme, candidates []adaptmr.Pair) (string, error) {
	d, err := core.EvalDigest(cfg, job, adaptmr.UniformPlan(adaptmr.TwoPhases, adaptmr.DefaultPair))
	if err != nil {
		return "", err
	}
	codes := make([]string, len(candidates))
	for i, p := range candidates {
		codes[i] = p.Code()
	}
	return fmt.Sprintf("%s:%s:p%d:%s", endpoint, d, scheme.Phases(), strings.Join(codes, ",")), nil
}

// ---------------------------------------------------------------------------
// Encoding — shared by the live handlers and the determinism tests
// ---------------------------------------------------------------------------

func planJSON(p adaptmr.Plan) PlanJSON {
	pairs := make([]string, len(p.Pairs))
	for i, pr := range p.Pairs {
		pairs[i] = pr.Code()
	}
	return PlanJSON{
		Phases:   p.Scheme.Phases(),
		Pairs:    pairs,
		Display:  p.String(),
		Switches: p.NumSwitches(),
	}
}

func jobJSON(res adaptmr.JobResult) JobJSON {
	return JobJSON{
		Name:                    res.Name,
		DurationS:               res.Duration.Seconds(),
		NumMaps:                 res.NumMaps,
		NumReduces:              res.NumReduces,
		Waves:                   res.Waves,
		MapS:                    res.MapsDoneAt.Sub(res.Start).Seconds(),
		ShuffleS:                res.ShuffleDoneAt.Sub(res.MapsDoneAt).Seconds(),
		ReduceS:                 res.Done.Sub(res.ShuffleDoneAt).Seconds(),
		NonConcurrentShufflePct: res.NonConcurrentShufflePct,
	}
}

// runResponse builds the /v1/run payload from a runner result.
func runResponse(res core.RunResult, evaluations int) RunResponse {
	return RunResponse{
		Plan:         planJSON(res.Plan),
		DurationNS:   int64(res.Duration),
		DurationS:    res.Duration.Seconds(),
		SwitchStallS: res.SwitchStall.Seconds(),
		Job:          jobJSON(res.Job),
		Evaluations:  evaluations,
	}
}

// tuneResponse builds the /v1/tune payload from a tuning result.
func tuneResponse(res adaptmr.TuningResult) TuneResponse {
	phasePlan := make([]PhaseAssignmentJSON, len(res.Plan.Pairs))
	switches := res.Plan.Switches()
	for i, p := range res.Plan.Pairs {
		phasePlan[i] = PhaseAssignmentJSON{Phase: i + 1, Pair: p.Code(), Switch: switches[i]}
	}
	profiles := make([]ProfileJSON, len(res.Profiles))
	for i, p := range res.Profiles {
		profiles[i] = ProfileJSON{
			Pair:     p.Pair.Code(),
			TotalS:   p.Total.Seconds(),
			MapS:     p.ByPhase[0].Seconds(),
			ShuffleS: p.ByPhase[1].Seconds(),
			ReduceS:  p.ByPhase[2].Seconds(),
		}
	}
	return TuneResponse{
		Plan:       planJSON(res.Plan),
		PhasePlan:  phasePlan,
		DurationNS: int64(res.Duration),
		DurationS:  res.Duration.Seconds(),
		Default: RefRunJSON{
			Plan:      planJSON(res.Default.Plan),
			DurationS: res.Default.Duration.Seconds(),
		},
		BestSingle: RefRunJSON{
			Plan:      planJSON(res.BestSingle.Plan),
			DurationS: res.BestSingle.Duration.Seconds(),
		},
		ImprovementOverDefaultPct:    100 * res.ImprovementOverDefault(),
		ImprovementOverBestSinglePct: 100 * res.ImprovementOverBestSingle(),
		FellBack:                     res.FellBack,
		Profiles:                     profiles,
		Evaluations:                  res.Evaluations,
	}
}

// encodePayload marshals a response deterministically (struct field
// order, trailing newline). Every 200 body goes through here, so a
// served result is byte-comparable with a locally encoded one.
func encodePayload(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
