package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptmr"
	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/control"
	"adaptmr/internal/core"
	"adaptmr/internal/server"
	"adaptmr/internal/sim"
)

// adaptd-closed-loop: closed-loop clients against an in-process adaptd.
// One repetition is a round: the clients work through a fixed list of
// small 2×2 /v1/run requests (every pair × {sort, wordcount}) with a
// non-streamed /v1/autotune after every few runs, each client sending its
// next request when its previous response has been read.
const (
	adaptdClients  = 2
	adaptdWorkers  = 2
	adaptdInputMB  = 56 // smallest per-VM input; requests add up to 16 MB
	autotuneEvery  = 8  // runs between autotune requests
	requestTimeout = time.Minute
)

// adaptdReq is one request of the round and its reference outcome.
type adaptdReq struct {
	kind    string // "run" or "autotune"
	body    []byte
	bench   string
	inputMB int64
	spec    server.ClusterSpec
	pair    adaptmr.Pair // run requests only

	want                    []byte // the reference response body
	events                  int64
	simS                    float64 // simulated job duration
	windows, switches, held int     // autotune requests only
}

type adaptdInst struct {
	reqs   []adaptdReq
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// autotunePolicy is the online policy autotune requests ask for; it equals
// adaptmr.SmokeOnlinePolicy, which is sized for small testbeds.
var autotunePolicy = &server.AutotunePolicySpec{WindowMS: 250, MinDwellMS: 1000, StableWindows: 2, CostBudget: 0.1}

// adaptdRequests generates a round from the seed: the order of the
// (pair, bench) runs, the bench of each autotune, each request's input
// size and distinct per-request cluster seeds, so no two requests of a
// round are identical and none coalesce.
func adaptdRequests(seed int64) ([]adaptdReq, error) {
	rng := rand.New(rand.NewSource(seed))
	benches := []string{"sort", "wordcount"}
	var runs []adaptdReq
	for _, b := range benches {
		for _, p := range adaptmr.AllPairs() {
			runs = append(runs, adaptdReq{kind: "run", bench: b, pair: p})
		}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	var reqs []adaptdReq
	for i, r := range runs {
		reqs = append(reqs, r)
		if (i+1)%autotuneEvery == 0 {
			reqs = append(reqs, adaptdReq{kind: "autotune", bench: benches[rng.Intn(len(benches))]})
		}
	}
	base := 1 + rng.Int63n(1<<30)
	for i := range reqs {
		q := &reqs[i]
		q.spec = server.ClusterSpec{Hosts: 2, VMsPerHost: 2, Seed: base + int64(i)}
		q.inputMB = adaptdInputMB + rng.Int63n(17)
		job := server.JobSpec{Bench: q.bench, InputMB: q.inputMB}
		var err error
		if q.kind == "run" {
			q.body, err = json.Marshal(server.RunRequest{Cluster: q.spec, Job: job, Plan: []string{q.pair.Code()}})
		} else {
			q.body, err = json.Marshal(server.AutotuneRequest{Cluster: q.spec, Job: job, Policy: autotunePolicy})
		}
		if err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// testbed returns a request's cluster and job as adaptd builds them.
func (q *adaptdReq) testbed() (adaptmr.ClusterConfig, adaptmr.JobConfig) {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts, cfg.VMsPerHost, cfg.Seed = q.spec.Hosts, q.spec.VMsPerHost, q.spec.Seed
	input := q.inputMB << 20
	if q.bench == "wordcount" {
		return cfg, adaptmr.WordCountBenchmark(input).Job
	}
	return cfg, adaptmr.SortBenchmark(input).Job
}

// reference computes the response adaptd must send, by a direct run of
// the same request through the facade.
func (q *adaptdReq) reference() error {
	cfg, job := q.testbed()
	var resp any
	if q.kind == "run" {
		res, err := adaptmr.Run(cfg, job, q.pair, adaptmr.WithPerfStats())
		if err != nil {
			return err
		}
		q.events, q.simS = res.Perf.Events, res.Duration.Seconds()
		resp = server.RunResponse{
			Plan:        planJSON(adaptmr.UniformPlan(adaptmr.TwoPhases, q.pair)),
			DurationNS:  int64(res.Duration),
			DurationS:   res.Duration.Seconds(),
			Job:         jobJSON(res),
			Evaluations: 1,
		}
	} else {
		res, err := adaptmr.RunOnline(cfg, job, adaptmr.WithOnlineControl(adaptmr.SmokeOnlinePolicy()))
		if err != nil {
			return err
		}
		q.events, q.simS = int64(res.SimEvents), res.Job.Duration.Seconds()
		q.windows, q.switches = res.Windows, res.Switches
		for _, d := range res.Decisions {
			if !d.Issued {
				q.held++
			}
		}
		decisions := res.Decisions
		if decisions == nil {
			decisions = []adaptmr.OnlineDecision{}
		}
		resp = server.AutotuneResponse{
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
	data, err := json.Marshal(resp)
	q.want = append(data, '\n')
	return err
}

func planJSON(p adaptmr.Plan) server.PlanJSON {
	pairs := make([]string, len(p.Pairs))
	for i, pr := range p.Pairs {
		pairs[i] = pr.Code()
	}
	return server.PlanJSON{Phases: p.Scheme.Phases(), Pairs: pairs, Display: p.String(), Switches: p.NumSwitches()}
}

func jobJSON(res adaptmr.JobResult) server.JobJSON {
	return server.JobJSON{
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

// setupAdaptd generates the round, computes every reference response,
// starts adaptd on a loopback listener and runs one warm-up round.
func setupAdaptd(seed int64) (instance, error) {
	reqs, err := adaptdRequests(seed)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		if err := reqs[i].reference(); err != nil {
			return nil, fmt.Errorf("reference for request %d: %w", i, err)
		}
	}
	srv, err := server.New(server.Config{Workers: adaptdWorkers, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Nothing was admitted, so the drain returns at once.
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	a := &adaptdInst{
		reqs:   reqs,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: adaptdClients, MaxIdleConnsPerHost: adaptdClients},
		},
	}
	go func() { a.served <- a.hs.Serve(ln) }()
	if warm := a.rep(); warm.failed > 0 {
		a.close()
		return nil, fmt.Errorf("warm-up round: %d of %d requests failed", warm.failed, warm.ops)
	}
	return a, nil
}

// rep runs one round.
func (a *adaptdInst) rep() repResult {
	var next atomic.Int64
	var mu sync.Mutex
	r := repResult{ops: len(a.reqs), lat: map[string][]float64{}}
	var wg sync.WaitGroup
	for c := 0; c < adaptdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(a.reqs) {
					return
				}
				q := &a.reqs[i]
				t0 := time.Now()
				err := a.post(q)
				ms := float64(time.Since(t0).Microseconds()) / 1e3
				mu.Lock()
				r.lat[q.kind] = append(r.lat[q.kind], ms)
				if err != nil {
					r.failed++
					fmt.Fprintf(os.Stderr, "perfbench: adaptd-closed-loop: request %d (%s): %v\n", i, q.kind, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, q := range a.reqs {
		r.events += q.events
	}
	return r
}

// post sends one request and checks the response against its reference.
func (a *adaptdInst) post(q *adaptdReq) error {
	resp, err := a.client.Post(a.base+"/v1/"+q.kind, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case !bytes.Equal(body, q.want):
		return errors.New("response differs from a direct facade run of the same request")
	}
	return nil
}

func (a *adaptdInst) sim() simOutputs {
	var total float64
	durs := make([]float64, len(a.reqs))
	for i, q := range a.reqs {
		total += q.simS
		durs[i] = q.simS
	}
	return simOutputs{makespanS: total, jobP95S: quantile(durs, 0.95)}
}

// traced reports the served latencies of the untraced rounds and adaptd's
// own counters, then replays the round through the core runner adaptd
// wraps with journeys, decisions, metrics, chained hooks and a tracer per
// request attached.
func (a *adaptdInst) traced(untraced []measured) (map[string]float64, error) {
	out := map[string]float64{}
	lat := map[string][]float64{}
	var ops int
	var wall float64
	for _, r := range untraced {
		for k, v := range r.lat {
			lat[k] = append(lat[k], v...)
		}
		ops += r.ops
		wall += r.wallS
	}
	for _, k := range []string{"run", "autotune"} {
		out["server."+k+"_p50_ms"] = median(lat[k])
		out["server."+k+"_p90_ms"] = quantile(lat[k], 0.9)
		out["server."+k+"_samples"] = float64(len(lat[k]))
	}
	out["server.req_per_s"] = float64(ops) / wall
	counters, err := a.scrape("server_coalesced_total", "server_queue_rejected_total", "server_responses_ok")
	if err != nil {
		return nil, err
	}
	if counters[2] == 0 {
		return nil, errors.New("/metrics reports no successful responses")
	}
	out["server.coalesced"] = counters[0]
	out["server.rejected"] = counters[1]

	sinks := newSinks()
	var hooks hookSet
	var evalS []float64
	var evaluations int
	for i := range a.reqs {
		q := &a.reqs[i]
		cfg, job := q.testbed()
		cfg.Obs = sinks
		tr := adaptmr.NewTracer()
		cfg.Obs.Trace = tr
		r := core.NewRunner(cfg, job)
		r.Parallelism = 1
		r.CollectPerf = true
		plan := adaptmr.UniformPlan(adaptmr.TwoPhases, q.pair)
		pol := adaptmr.SmokeOnlinePolicy()
		var eng *sim.Engine
		r.OnEvaluation = func(_ core.Plan, cl *cluster.Cluster) {
			if q.kind == "autotune" {
				smp := analyze.NewSampler()
				smp.AttachCluster(cl)
				control.New(pol).Attach(cl, smp)
			}
			hooks.attach(cl)
			eng = cl.Eng
		}
		if q.kind == "autotune" {
			plan = adaptmr.UniformPlan(adaptmr.TwoPhases, pol.StartPair)
		}
		res, err := r.Run(plan)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		// Reference counts: adaptmr.Run's perf probe starts after the boot
		// install, RunOnline counts the engine's whole life.
		events := res.Perf.Events
		if q.kind == "autotune" {
			events = int64(eng.EventsFired())
		}
		if res.Duration.Seconds() != q.simS || events != q.events {
			return nil, fmt.Errorf("request %d: hooks pass ran %v in %d events, reference %vs in %d",
				i, res.Duration, events, q.simS, q.events)
		}
		rep, err := analyze.Build(tr, nil, nil, analyze.Options{})
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		addCritPath(out, rep)
		addPhases(out, res.Job)
		evalS = append(evalS, res.Perf.WallSeconds)
		evaluations += r.Evaluations
		out["control.windows"] += float64(q.windows)
		out["control.switches"] += float64(q.switches)
		out["control.held"] += float64(q.held)
	}
	h := hooks.total()
	if n := sinks.Metrics.Snapshot().Counters["net.flows"]; n != h.flows {
		return nil, fmt.Errorf("chained flow hook saw %d flows, metrics %d", h.flows, n)
	}
	simLayers(out, h, sinks.Journeys.Summary(), sinks.Decisions)
	out["core.evaluations"] = float64(evaluations)
	out["core.eval_ms_p50"] = 1000 * median(evalS)
	return out, nil
}

// scrape reads counters from adaptd's Prometheus exposition; a counter
// never incremented is absent and reads 0.
func (a *adaptdInst) scrape(names ...string) ([]float64, error) {
	resp, err := a.client.Get(a.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[f[0]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = vals[n]
	}
	return out, nil
}

// close drains adaptd, stops the listener and waits for it to return.
func (a *adaptdInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: adaptd shutdown:", err)
	}
	if err := a.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: listener shutdown:", err)
	}
	<-a.served
	a.client.CloseIdleConnections()
}
