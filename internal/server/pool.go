package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Admission errors. Handlers map ErrQueueFull to 429 + Retry-After and
// ErrDraining to 503.
var (
	// ErrQueueFull reports that the bounded admission queue is at
	// capacity; the client should back off and retry.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining reports that the server is shutting down and no longer
	// admits work.
	ErrDraining = errors.New("server: draining, not accepting new work")
)

// task is one admitted unit of work. The worker executes run, which
// stores its outcome in val/err; done is closed afterwards, publishing
// both to the waiter.
type task struct {
	run  func()
	done chan struct{}
	val  any
	err  error
}

func newTask() *task { return &task{done: make(chan struct{})} }

// pool is a fixed-size worker pool behind a bounded admission queue.
// Admission is non-blocking: a full queue rejects immediately
// (backpressure) instead of queueing unbounded work, and a draining pool
// rejects everything. Draining closes the queue, lets the workers finish
// every admitted task — queued and in-flight — and then returns.
type pool struct {
	mu       sync.Mutex
	queue    chan *task
	draining bool

	workers int
	busy    atomic.Int64
	wg      sync.WaitGroup
}

func newPool(workers, depth int) *pool {
	p := &pool{
		queue:   make(chan *task, depth),
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for t := range p.queue {
		p.busy.Add(1)
		t.run()
		p.busy.Add(-1)
		close(t.done)
	}
}

// submit admits a task or rejects it without blocking.
func (p *pool) submit(t *task) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return ErrDraining
	}
	select {
	case p.queue <- t:
		return nil
	default:
		return ErrQueueFull
	}
}

// drain stops admission, waits for every admitted task to complete, and
// returns nil. If ctx expires first, drain returns its error with
// workers still running; the caller decides how to force matters (the
// Server cancels its base context, aborting in-flight evaluations at the
// next context check).
func (p *pool) drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.queue)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// depth is the number of admitted-but-not-yet-started tasks.
func (p *pool) depth() int { return len(p.queue) }

// busyWorkers is how many workers are mid-task right now.
func (p *pool) busyWorkers() int { return int(p.busy.Load()) }
