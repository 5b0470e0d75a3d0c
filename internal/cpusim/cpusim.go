// Package cpusim models a virtual CPU as a processor-sharing resource: all
// runnable jobs progress simultaneously at speed/n. The paper pins each
// 1-VCPU VM to its own physical core, so there is no cross-VM CPU
// contention — only contention between the Hadoop tasks inside one VM.
package cpusim

import (
	"math"

	"adaptmr/internal/sim"
)

// burst is an in-flight CPU burst. Finished bursts are recycled through
// the VCPU's freelist.
type burst struct {
	remaining float64 // cpu-seconds of work left at full speed
	done      func()
}

// VCPU is a processor-sharing CPU with a given speed in core-equivalents.
// Job bookkeeping is kept in insertion order so simulations are
// deterministic.
type VCPU struct {
	eng   *sim.Engine
	speed float64

	jobs       []*burst
	lastUpdate sim.Time
	next       *sim.Event

	// Steady-state bursts allocate nothing: complete is bound once,
	// finished is complete's reused scratch and free recycles bursts.
	completeFn func()
	finished   []*burst
	free       []*burst

	busyTime sim.Duration
	doneJobs int64
}

// New creates a VCPU; speed 1.0 is one full core.
func New(eng *sim.Engine, speed float64) *VCPU {
	if speed <= 0 {
		panic("cpusim: non-positive speed")
	}
	c := &VCPU{eng: eng, speed: speed}
	c.completeFn = c.complete
	return c
}

// Busy returns the cumulative time the VCPU had at least one runnable job.
func (c *VCPU) Busy() sim.Duration { return c.busyTime }

// CompletedJobs returns the number of bursts that ran to completion.
func (c *VCPU) CompletedJobs() int64 { return c.doneJobs }

// Running returns the number of concurrent bursts.
func (c *VCPU) Running() int { return len(c.jobs) }

// Run starts a burst of cpuSeconds of work (measured at full core speed)
// and calls done when it finishes. Zero-length bursts complete on the next
// event boundary.
func (c *VCPU) Run(cpuSeconds float64, done func()) {
	if cpuSeconds < 0 {
		panic("cpusim: negative burst")
	}
	c.advance()
	var j *burst
	if n := len(c.free); n > 0 {
		j = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		j = &burst{}
	}
	j.remaining, j.done = cpuSeconds, done
	c.jobs = append(c.jobs, j)
	c.reschedule()
}

// advance applies elapsed progress to all jobs since the last update.
func (c *VCPU) advance() {
	now := c.eng.Now()
	dt := now.Sub(c.lastUpdate).Seconds()
	c.lastUpdate = now
	if n := len(c.jobs); n > 0 && dt > 0 {
		c.busyTime += sim.DurationFromSeconds(dt)
		rate := c.speed / float64(n)
		for _, j := range c.jobs {
			j.remaining -= dt * rate
		}
	}
}

// reschedule arms the completion event for the burst finishing soonest.
func (c *VCPU) reschedule() {
	if c.next != nil {
		c.next.Cancel()
		c.next = nil
	}
	n := len(c.jobs)
	if n == 0 {
		return
	}
	minRem := math.Inf(1)
	for _, j := range c.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	eta := sim.DurationFromSeconds(minRem * float64(n) / c.speed)
	if minRem > 0 && eta == 0 {
		// Sub-nanosecond residue must still advance the clock, or the
		// completion event would loop at the current instant forever.
		eta = 1
	}
	c.next = c.eng.Schedule(eta, c.completeFn)
}

// complete retires every finished job in insertion order, then re-arms.
// Each burst goes back to the freelist before its callback runs, so a
// callback that starts the next burst reuses it.
func (c *VCPU) complete() {
	c.next = nil
	c.advance()
	// One nanosecond of full-speed work: anything below is float residue.
	const eps = 1e-9
	finished := c.finished[:0]
	live := c.jobs[:0]
	for _, j := range c.jobs {
		if j.remaining <= eps {
			finished = append(finished, j)
		} else {
			live = append(live, j)
		}
	}
	c.jobs = live
	c.reschedule()
	for i, j := range finished {
		finished[i] = nil
		done := j.done
		j.done = nil
		c.free = append(c.free, j)
		c.doneJobs++
		if done != nil {
			done()
		}
	}
	c.finished = finished[:0]
}
