package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"adaptmr/internal/cluster"
	"adaptmr/internal/obs"
	"adaptmr/internal/workloads"
)

func TestRunnerContextCancelled(t *testing.T) {
	r := testRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead before any evaluation starts
	r.Context = ctx

	_, err := r.Run(Uniform(TwoPhases, cc))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunnerContextDeadlineMidRun(t *testing.T) {
	r := testRunner()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	r.Context = ctx

	start := time.Now()
	_, err := r.RunAll([]Plan{
		Uniform(TwoPhases, cc),
		Uniform(TwoPhases, ad),
		Uniform(TwoPhases, dd),
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The 1ms deadline must abandon the batch long before three full
	// simulations (hundreds of ms each) would have completed.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — deadline not threaded into the event loop", elapsed)
	}
}

func TestRunnerContextNilBackgroundIdentical(t *testing.T) {
	plan := NewPlan(TwoPhases, ad, cc)
	r1 := testRunner()
	a := mustRun(t, r1, plan)

	r2 := testRunner()
	r2.Context = context.Background()
	b := mustRun(t, r2, plan)
	if a.Duration != b.Duration || a.SwitchStall != b.SwitchStall || a.Job.Duration != b.Job.Duration {
		t.Fatalf("background-context run diverged: %+v vs %+v", a, b)
	}

	// A live (but never-fired) cancellable context must not perturb the
	// simulation either — the step loop fires the same events.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r3 := testRunner()
	r3.Context = ctx
	c := mustRun(t, r3, plan)
	if a.Duration != c.Duration || a.Job.Duration != c.Job.Duration {
		t.Fatalf("checked-loop run diverged: %+v vs %+v", a, c)
	}
}

// joined reports whether key's in-flight call has at least dups followers.
func joined(g *Group, key string, dups int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.calls[key]
	return ok && c.dups >= dups
}

func TestGroupSingleFlight(t *testing.T) {
	var g Group
	const waiters = 8
	gate := make(chan struct{})
	var calls int
	var mu sync.Mutex

	var wg sync.WaitGroup
	results := make([]any, waiters)
	sharedCount := 0
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, _ := g.DoChan("k", func() (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-gate
				return 42, nil
			})
			r := <-ch
			if r.Err != nil {
				t.Errorf("DoChan: %v", r.Err)
			}
			results[i] = r.Val
			mu.Lock()
			if r.Shared {
				sharedCount++
			}
			mu.Unlock()
		}(i)
	}
	// Release the leader only once every other waiter has joined its
	// flight; releasing earlier lets a late waiter find the key forgotten
	// and start a second flight.
	for !joined(&g, "k", waiters-1) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn executed %d times, want 1", calls)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
	if sharedCount < waiters-1 {
		t.Fatalf("sharedCount = %d, want >= %d", sharedCount, waiters-1)
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d after completion", g.InFlight())
	}

	// The key is forgotten: a second call re-executes.
	ch, _ := g.DoChan("k", func() (any, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, nil
	})
	<-ch
	if calls != 2 {
		t.Fatalf("second DoChan did not re-execute (calls = %d)", calls)
	}
}

func TestGroupErrorPropagation(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	ch, _ := g.DoChan("e", func() (any, error) { return nil, boom })
	if r := <-ch; !errors.Is(r.Err, boom) {
		t.Fatalf("err = %v", r.Err)
	}
	// Distinct keys run independently.
	ch, _ = g.DoChan("other", func() (any, error) { return "ok", nil })
	if r := <-ch; r.Err != nil || r.Val != "ok" {
		t.Fatalf("got %v, %v", r.Val, r.Err)
	}
}

func TestEvalDigestStability(t *testing.T) {
	cfg := cluster.DefaultConfig()
	job := workloads.Sort(96 << 20).Job
	plan := Uniform(TwoPhases, cc)

	a, err := EvalDigest(cfg, job, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Attaching observation sinks must not change the digest (they are
	// zeroed before hashing).
	obsCfg := cfg
	obsCfg.Obs.Trace = obs.NewTracer()
	obsCfg.Obs.Metrics = obs.NewRegistry()
	b, err := EvalDigest(obsCfg, job, plan)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("digest depends on observation sinks")
	}
	// Equivalent plans (same runtime expansion) share a digest…
	c, err := EvalDigest(cfg, job, Uniform(ThreePhases, cc))
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatal("equivalent plans produced different digests")
	}
	// …while any config difference changes it.
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	d, err := EvalDigest(cfg2, job, plan)
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Fatal("seed change did not change the digest")
	}
}
