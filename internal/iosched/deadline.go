package iosched

import (
	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// DeadlineSched is the Linux deadline elevator: two one-way sorted lists
// (reads and writes) dispatched in sector-order batches, with per-request
// expiry FIFOs that bound starvation. Reads are preferred; writes get a
// batch after WritesStarved read batches or when a write expires.
//
// Its global sector sorting across all streams makes it strong for the
// write-heavy reduce phase of sort — one ingredient of the paper's
// per-phase optimum (Fig 6).
type DeadlineSched struct {
	p Params

	sorted [2]sortedList // indexed by block.Op
	expiry [2]fifo
	merges *merger

	batchOp      block.Op
	batchLeft    int
	nextPos      int64
	starvedReads int // write batches owed counter
}

// NewDeadline returns a deadline elevator with the given tunables.
func NewDeadline(p Params) *DeadlineSched {
	return &DeadlineSched{
		p:      p,
		merges: newMerger(p.MaxSectors),
	}
}

// Name implements block.Elevator.
func (s *DeadlineSched) Name() string { return Deadline }

func (s *DeadlineSched) expire(op block.Op) sim.Duration {
	if op == block.Read {
		return s.p.ReadExpire
	}
	return s.p.WriteExpire
}

// Add implements block.Elevator.
func (s *DeadlineSched) Add(r *block.Request, now sim.Time) {
	if g := s.merges.mergeOrAdd(r); g != nil {
		if g.Sector == r.Sector {
			// Front merge moved g's start sector; restore sort order.
			s.sorted[g.Op].refresh(g)
		}
		return
	}
	s.sorted[r.Op].insert(r)
	s.expiry[r.Op].push(r, now.Add(s.expire(r.Op)))
}

// Dispatch implements block.Elevator.
func (s *DeadlineSched) Dispatch(now sim.Time) (*block.Request, sim.Time) {
	if s.sorted[block.Read].len() == 0 && s.sorted[block.Write].len() == 0 {
		return nil, 0
	}

	// Continue the current batch along the sorted scan when possible.
	if s.batchLeft > 0 && s.sorted[s.batchOp].len() > 0 && !s.frontExpired(otherOp(s.batchOp), now) {
		s.p.Decisions.Record(now, obs.DecDeadlineBatch)
		return s.take(s.sorted[s.batchOp].next(s.nextPos)), 0
	}

	// Start a new batch: prefer reads unless writes are starved or expired.
	op := block.Read
	if s.sorted[block.Read].len() == 0 {
		op = block.Write
	} else if s.sorted[block.Write].len() > 0 &&
		(s.starvedReads >= s.p.WritesStarved || s.frontExpired(block.Write, now)) {
		op = block.Write
	}
	if op == block.Write {
		s.starvedReads = 0
	} else if s.sorted[block.Write].len() > 0 {
		s.starvedReads++
	}

	s.batchOp = op
	s.batchLeft = s.p.FIFOBatch

	// An expired FIFO head restarts the scan at the oldest request;
	// otherwise the batch continues from the last dispatched position.
	var r *block.Request
	if f, deadline := s.expiry[op].front(); f != nil && deadline <= now {
		s.p.Decisions.RecordStream(now, obs.DecDeadlineExpired, int64(f.Stream))
		r = f
	} else {
		s.p.Decisions.Record(now, obs.DecDeadlineBatch)
		r = s.sorted[op].next(s.nextPos)
	}
	return s.take(r), 0
}

func (s *DeadlineSched) frontExpired(op block.Op, now sim.Time) bool {
	f, deadline := s.expiry[op].front()
	return f != nil && deadline <= now
}

func otherOp(op block.Op) block.Op {
	if op == block.Read {
		return block.Write
	}
	return block.Read
}

func (s *DeadlineSched) take(r *block.Request) *block.Request {
	s.sorted[r.Op].remove(r)
	s.expiry[r.Op].remove(r)
	s.merges.remove(r)
	s.nextPos = r.End()
	s.batchLeft--
	return r
}

// Completed implements block.Elevator.
func (s *DeadlineSched) Completed(_ *block.Request, _ sim.Time) {}

// Pending implements block.Elevator.
func (s *DeadlineSched) Pending() int {
	return s.sorted[block.Read].len() + s.sorted[block.Write].len()
}
