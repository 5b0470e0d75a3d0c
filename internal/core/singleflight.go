package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"adaptmr/internal/cluster"
	"adaptmr/internal/mapred"
	"adaptmr/internal/obs"
)

// Group is an exported single-flight: concurrent DoChan calls that share
// a key execute the supplied function exactly once and all receive the
// leader's result. It generalises the Runner's in-memory memo — which
// single-flights plan evaluations inside one Runner — to callers that
// coalesce across requests, keyed by the content digest EvalDigest
// produces (the tuning daemon coalesces identical in-flight API requests
// this way).
//
// Unlike the Runner memo, a Group forgets a key as soon as its call
// completes: it deduplicates concurrent work, it does not cache. The
// zero Group is ready to use.
type Group struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// FlightResult is one delivery from DoChan.
type FlightResult struct {
	Val any
	Err error
	// Shared reports whether the value was also delivered to other
	// waiters (i.e. the call was coalesced).
	Shared bool
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
	dups int
}

// DoChan executes fn under key, single-flighted: it returns a 1-buffered
// channel that will receive the call's result, and reports whether this
// caller is the leader (the one whose fn executes, on a new goroutine).
// A caller that finds an identical call in flight follows it: its fn is
// never called, and it receives the leader's result. The key is
// forgotten once the leader's fn returns, so later calls with the same
// key start fresh work.
//
// The leader's fn runs detached from any individual caller: a follower
// that stops waiting (e.g. its request context expires) does not cancel
// the work, and the remaining waiters still receive the result.
func (g *Group) DoChan(key string, fn func() (any, error)) (<-chan FlightResult, bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		ch := make(chan FlightResult, 1)
		go func() {
			<-c.done
			ch <- FlightResult{Val: c.val, Err: c.err, Shared: true}
		}()
		return ch, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	ch := make(chan FlightResult, 1)
	go func() {
		c.val, c.err = fn()
		g.mu.Lock()
		delete(g.calls, key)
		shared := c.dups > 0
		g.mu.Unlock()
		close(c.done)
		ch <- FlightResult{Val: c.val, Err: c.err, Shared: shared}
	}()
	return ch, true
}

// InFlight reports how many distinct keys are currently executing.
func (g *Group) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// EvalDigest derives the content hash of one evaluation: a sha256 over
// the (cluster config, job config, plan key) triple, which captures
// everything that determines its outcome. Observation sinks are zeroed
// before hashing: they do not affect simulated timings, and pointer
// fields would not marshal meaningfully anyway. It is the coalescing key
// for a Group; the key never leaves the process, so it carries no
// version.
func EvalDigest(cc cluster.Config, job mapred.Config, plan Plan) (string, error) {
	cc.Obs = obs.Sink{}
	cc.Host.Obs = obs.Sink{}
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(cc); err != nil {
		return "", fmt.Errorf("core: eval digest (cluster): %w", err)
	}
	if err := enc.Encode(job); err != nil {
		return "", fmt.Errorf("core: eval digest (job): %w", err)
	}
	h.Write([]byte(plan.Key()))
	return hex.EncodeToString(h.Sum(nil)), nil
}
