package iosched

import (
	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// AnticipatorySched is the Linux anticipatory (AS) elevator: a deadline-style
// one-way elevator that, after completing a synchronous read, deliberately
// keeps the disk idle for a short window in case the same stream issues
// another nearby read — trading a few milliseconds for the large seek it
// would otherwise pay to service a different stream.
//
// At the VMM level a "stream" is a whole VM, so anticipation keeps the head
// inside one VM's image extent during its sequential scans. This is the
// "seek-conserving" behaviour the paper credits for AS winning in Dom0
// (Fig 2, Table I). Writes are never anticipated, which is why AS loses its
// edge in write-dominated phases — the adaptive scheduler's opening.
type AnticipatorySched struct {
	p Params

	sorted [2]sortedList
	expiry [2]fifo
	merges *merger

	batchOp    block.Op
	batchUntil sim.Time
	inBatch    bool
	nextPos    int64

	// Anticipation state.
	anticipating bool
	anticStream  block.StreamID
	anticUntil   sim.Time
	anticPos     int64

	// Per-stream trust: consecutive anticipation timeouts disable
	// anticipation for a stream until it proves sequential again. Trust is
	// rebuilt from observed think times (gap between a stream's last read
	// completion and its next read arrival).
	misses       map[block.StreamID]int
	lastReadDone map[block.StreamID]sim.Time

	stats ASStats
}

// ASStats counts anticipation outcomes (diagnostics and tests).
type ASStats struct {
	Armed    int64 // anticipation windows opened
	Hits     int64 // windows satisfied by a close request
	Timeouts int64 // windows that expired
	Distrust int64 // completions where the stream was not trusted
}

// Stats returns the anticipation counters.
func (s *AnticipatorySched) Stats() ASStats { return s.stats }

// NewAnticipatory returns an AS elevator with the given tunables.
func NewAnticipatory(p Params) *AnticipatorySched {
	// AS uses much shorter expiries than deadline.
	if p.ReadExpire > 125*sim.Millisecond {
		p.ReadExpire = 125 * sim.Millisecond
	}
	if p.WriteExpire > 250*sim.Millisecond {
		p.WriteExpire = 250 * sim.Millisecond
	}
	return &AnticipatorySched{
		p:            p,
		merges:       newMerger(p.MaxSectors),
		misses:       make(map[block.StreamID]int),
		lastReadDone: make(map[block.StreamID]sim.Time),
	}
}

// Name implements block.Elevator.
func (s *AnticipatorySched) Name() string { return Anticipatory }

func (s *AnticipatorySched) expire(op block.Op) sim.Duration {
	if op == block.Read {
		return s.p.ReadExpire
	}
	return s.p.WriteExpire
}

// Add implements block.Elevator.
func (s *AnticipatorySched) Add(r *block.Request, now sim.Time) {
	if r.Op == block.Read {
		// Rebuild or erode trust from the observed think time.
		if done, ok := s.lastReadDone[r.Stream]; ok {
			if now.Sub(done) <= s.p.AnticExpire {
				s.misses[r.Stream] = 0
			}
		}
		if s.anticipating && r.Stream == s.anticStream {
			// The awaited request arrived: anticipation paid off.
			s.anticipating = false
			s.misses[r.Stream] = 0
		}
	}
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
func (s *AnticipatorySched) Dispatch(now sim.Time) (*block.Request, sim.Time) {
	nr, nw := s.sorted[block.Read].len(), s.sorted[block.Write].len()
	if nr == 0 && nw == 0 {
		if s.anticipating {
			if now < s.anticUntil {
				return nil, s.anticUntil
			}
			// The window expired with nothing arriving at all.
			s.anticipating = false
			s.misses[s.anticStream]++
			s.stats.Timeouts++
			s.p.Decisions.RecordStream(now, obs.DecAnticTimeout, int64(s.anticStream))
		}
		return nil, 0
	}

	if s.anticipating {
		if now >= s.anticUntil {
			// Timed out: the stream broke its pattern.
			s.anticipating = false
			s.misses[s.anticStream]++
			s.stats.Timeouts++
			s.p.Decisions.RecordStream(now, obs.DecAnticTimeout, int64(s.anticStream))
		} else {
			// Serve the anticipated stream's reads ahead of everything —
			// but only if the candidate continues the current run
			// (as_close_req); a far request is worth waiting out the
			// anticipation window for a closer one.
			if r := s.findCloseStreamRead(s.anticStream); r != nil {
				s.anticipating = false
				s.misses[s.anticStream] = 0
				s.stats.Hits++
				s.p.Decisions.RecordStream(now, obs.DecAnticHit, int64(s.anticStream))
				if !s.inBatch || s.batchOp != block.Read {
					s.inBatch = true
					s.batchOp = block.Read
					s.batchUntil = now.Add(s.p.ASBatchExpireRead)
				}
				return s.take(r), 0
			}
			// Keep the disk idle for the rest of the window. The wait is
			// bounded by AnticExpire (6 ms), so expired FIFO entries are
			// not allowed to break anticipation — under saturation
			// everything is past its expiry and aborting here would defeat
			// anticipation entirely.
			return nil, s.anticUntil
		}
	}

	// Time-based batch alternation: the current batch continues until its
	// clock runs out (or its direction drains); read batches are 4× longer
	// than write batches, which is how AS keeps writeback from constantly
	// interrupting sequential read streams.
	if s.inBatch && now < s.batchUntil && s.sorted[s.batchOp].len() > 0 {
		return s.take(s.sorted[s.batchOp].next(s.nextPos)), 0
	}

	op := block.Read
	if nr == 0 {
		op = block.Write
	} else if nw > 0 && (s.frontExpired(block.Write, now) || (s.inBatch && s.batchOp == block.Read && now >= s.batchUntil)) {
		op = block.Write
	}
	s.inBatch = true
	s.batchOp = op
	if op == block.Read {
		s.batchUntil = now.Add(s.p.ASBatchExpireRead)
	} else {
		s.batchUntil = now.Add(s.p.ASBatchExpireWrite)
	}

	// A new batch normally continues the elevator scan; only an egregiously
	// overdue FIFO head (4× its expiry) hijacks the scan position. Under
	// saturation everything is somewhat past expiry, and restarting every
	// batch at the oldest request would turn the scan into random jumps.
	var r *block.Request
	if f, deadline := s.expiry[op].front(); f != nil && deadline.Add(3*s.expire(op)) <= now {
		r = f
	} else {
		r = s.sorted[op].next(s.nextPos)
	}
	return s.take(r), 0
}

// findCloseStreamRead returns the queued read from stream that continues
// the current run: within AnticCloseSectors of the last completed position
// (backward distance counts double, as in as_close_req).
func (s *AnticipatorySched) findCloseStreamRead(stream block.StreamID) *block.Request {
	var best *block.Request
	bestDist := s.p.AnticCloseSectors
	if bestDist <= 0 {
		bestDist = 1 << 62
	}
	for _, r := range s.sorted[block.Read].reqs {
		if r.Stream != stream {
			continue
		}
		d := r.Sector - s.anticPos
		if d < 0 {
			d = -d * 2 // backward seeks are costlier; AS penalises them
		}
		if d <= bestDist {
			best, bestDist = r, d
		}
	}
	return best
}

func (s *AnticipatorySched) frontExpired(op block.Op, now sim.Time) bool {
	f, deadline := s.expiry[op].front()
	return f != nil && deadline <= now
}

func (s *AnticipatorySched) take(r *block.Request) *block.Request {
	s.sorted[r.Op].remove(r)
	s.expiry[r.Op].remove(r)
	s.merges.remove(r)
	s.nextPos = r.End()
	return r
}

// Completed implements block.Elevator. Completing a synchronous read from a
// trusted stream arms the anticipation window.
func (s *AnticipatorySched) Completed(r *block.Request, now sim.Time) {
	if r.Op != block.Read {
		return
	}
	s.lastReadDone[r.Stream] = now
	if s.misses[r.Stream] >= s.p.AnticMaxMisses {
		s.stats.Distrust++
		return
	}
	s.stats.Armed++
	s.p.Decisions.RecordStream(now, obs.DecAnticArm, int64(r.Stream))
	s.anticipating = true
	s.anticStream = r.Stream
	s.anticUntil = now.Add(s.p.AnticExpire)
	s.anticPos = r.End()
}

// Pending implements block.Elevator.
func (s *AnticipatorySched) Pending() int {
	return s.sorted[block.Read].len() + s.sorted[block.Write].len()
}
