package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
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
			v, err, shared := g.Do("k", func() (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
			mu.Lock()
			if shared {
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
	_, _, _ = g.Do("k", func() (any, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, nil
	})
	if calls != 2 {
		t.Fatalf("second Do did not re-execute (calls = %d)", calls)
	}
}

func TestGroupErrorPropagation(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	_, err, _ := g.Do("e", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Distinct keys run independently.
	v, err, _ := g.Do("other", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("got %v, %v", v, err)
	}
}
