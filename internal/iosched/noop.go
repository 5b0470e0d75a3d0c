package iosched

import (
	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

// NoopSched is the Linux noop elevator: a FIFO that still performs
// adjacent-request merging but never sorts. Under a VMM whose VMs issue
// interleaved streams this forces a seek on nearly every dispatch, which is
// why the paper's Fig 2/Table I show Noop-in-VMM collapsing MapReduce
// performance.
type NoopSched struct {
	q      fifo
	merges *merger
}

// NewNoop returns a noop elevator.
func NewNoop(p Params) *NoopSched {
	return &NoopSched{merges: newMerger(p.MaxSectors)}
}

// Name implements block.Elevator.
func (s *NoopSched) Name() string { return Noop }

// Add implements block.Elevator.
func (s *NoopSched) Add(r *block.Request, _ sim.Time) {
	if s.merges.mergeOrAdd(r) != nil {
		return
	}
	s.q.push(r, 0) // noop never expires a request
}

// Dispatch implements block.Elevator.
func (s *NoopSched) Dispatch(_ sim.Time) (*block.Request, sim.Time) {
	r, _ := s.q.front()
	if r == nil {
		return nil, 0
	}
	s.q.remove(r)
	s.merges.remove(r)
	return r, 0
}

// Completed implements block.Elevator.
func (s *NoopSched) Completed(_ *block.Request, _ sim.Time) {}

// Pending implements block.Elevator.
func (s *NoopSched) Pending() int { return s.q.len() }
