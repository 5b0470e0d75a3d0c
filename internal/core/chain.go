package core

import (
	"context"
	"fmt"

	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/sim"
)

// Chain support: the paper motivates plans with more phases via chains of
// MapReduce jobs (Pig scripts compile to such chains). A chain executes
// stages back to back on the same cluster; each stage gets its own
// two-phase plan, and the meta-scheduler suppresses the switch command
// between stages when the outgoing and incoming pairs coincide.

// ChainStageResult is one stage's outcome inside a chain run.
type ChainStageResult struct {
	Plan   Plan
	Result mapred.Result
}

// ChainResult is a full chain execution.
type ChainResult struct {
	Stages   []ChainStageResult
	Duration sim.Duration
}

// deriveChainInputs propagates data volumes: stage k+1 reads what stage k
// wrote (map ratio × reduce ratio × input, rounded up to a block so tiny
// outputs still form one split per VM).
func deriveChainInputs(cc cluster.Config, stages []mapred.Config) []mapred.Config {
	out := make([]mapred.Config, len(stages))
	copy(out, stages)
	for i := 1; i < len(out); i++ {
		prev := out[i-1]
		produced := int64(float64(prev.InputPerVM) * prev.MapOutputRatio * prev.ReduceOutputRatio)
		if produced < cc.HDFS.BlockBytes {
			produced = cc.HDFS.BlockBytes
		}
		out[i].InputPerVM = produced
	}
	return out
}

// RunChain executes the stages sequentially on one cluster, applying each
// stage's plan (switch commands at stage entry and at each stage's
// maps-done boundary, suppressed when the pair does not change). ctx
// bounds the run as in RunEngine.
func RunChain(ctx context.Context, cc cluster.Config, stages []mapred.Config, plans []Plan) (ChainResult, error) {
	if len(stages) == 0 {
		return ChainResult{}, fmt.Errorf("core: empty chain")
	}
	if len(plans) != len(stages) {
		return ChainResult{}, fmt.Errorf("core: %d plans for %d stages", len(plans), len(stages))
	}
	cl := cluster.New(cc)
	stages = deriveChainInputs(cc, stages)

	cl.InstallPair(plans[0].Pairs[0])
	start := cl.Eng.Now()
	var res ChainResult

	current := plans[0].Pairs[0] // pair installed right now
	var runStage func(i int)
	runStage = func(i int) {
		plan := plans[i]
		rt := plan.RuntimePairs()
		begin := func() {
			job := mapred.NewJob(cl, stages[i])
			if rt[1] != rt[0] {
				job.OnMapsDone(func() { cl.SetPairAll(rt[1], nil) })
			}
			if rt[2] != rt[1] {
				job.OnShuffleDone(func() { cl.SetPairAll(rt[2], nil) })
			}
			current = rt[2]
			job.Start(func(j *mapred.Job) {
				res.Stages = append(res.Stages, ChainStageResult{Plan: plan, Result: j.Result()})
				if i+1 < len(stages) {
					runStage(i + 1)
				}
			})
		}
		if rt[0] != current {
			cl.SetPairAll(rt[0], begin)
			return
		}
		begin()
	}
	runStage(0)
	if err := RunEngine(ctx, cl.Eng); err != nil {
		return ChainResult{}, fmt.Errorf("core: chain abandoned: %w", err)
	}
	if len(res.Stages) != len(stages) {
		return ChainResult{}, fmt.Errorf("core: chain completed %d of %d stages (simulation drained early)",
			len(res.Stages), len(stages))
	}
	res.Duration = res.Stages[len(res.Stages)-1].Result.Done.Sub(start)
	return res, nil
}

// ChainTuning is the outcome of TuneChain.
type ChainTuning struct {
	Plans []Plan
	// Tuned is the chained execution under the per-stage plans.
	Tuned ChainResult
	// Default is the chained execution under uniform (CFQ, CFQ).
	Default ChainResult
	// Evaluations counts the job executions spent tuning.
	Evaluations int
}

// ImprovementOverDefault is the chain-level gain.
func (c ChainTuning) ImprovementOverDefault() float64 {
	if c.Default.Duration <= 0 {
		return 0
	}
	return 1 - float64(c.Tuned.Duration)/float64(c.Default.Duration)
}

// TuneChain tunes every stage independently with the two-phase heuristic
// (each stage profiled at its derived input volume on a fresh cluster),
// then executes the whole chain under the composed plans and under the
// default pair for comparison. ctx bounds every evaluation and both chain
// runs; parallelism sets each stage runner's evaluation worker count (<= 0
// means GOMAXPROCS).
func TuneChain(ctx context.Context, cc cluster.Config, stages []mapred.Config, parallelism int) (ChainTuning, error) {
	derived := deriveChainInputs(cc, stages)
	var out ChainTuning
	for _, st := range derived {
		r := NewRunner(cc, st)
		r.Parallelism = parallelism
		r.Context = ctx
		h, err := Heuristic(r, TwoPhases, nil)
		if err != nil {
			return ChainTuning{}, err
		}
		out.Plans = append(out.Plans, h.Plan)
		out.Evaluations += h.Evaluations
	}
	var err error
	if out.Tuned, err = RunChain(ctx, cc, stages, out.Plans); err != nil {
		return ChainTuning{}, err
	}
	defPlans := make([]Plan, len(stages))
	for i := range defPlans {
		defPlans[i] = Uniform(TwoPhases, iosched.DefaultPair)
	}
	if out.Default, err = RunChain(ctx, cc, stages, defPlans); err != nil {
		return ChainTuning{}, err
	}
	return out, nil
}
