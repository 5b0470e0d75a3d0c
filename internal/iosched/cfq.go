package iosched

import (
	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// CFQSched is the Completely Fair Queuing elevator, the Linux (and Xen
// Dom0) default. Synchronous requests are partitioned into per-stream
// queues served round-robin with time slices; at the end of a sync slice
// the disk idles briefly in case the stream issues more I/O. Asynchronous
// writes from all streams share one pseudo-queue that takes shorter slices.
//
// CFQ's per-stream partitioning gives the fairness the paper measures in
// Fig 3 (tight per-VM throughput spread) but gives up global sector
// sorting across streams, costing aggregate throughput against AS/deadline
// in seek-bound phases.
type CFQSched struct {
	p Params

	queues map[block.StreamID]*cfqQueue
	// rr[rrHead:] is the round-robin ring of nonempty or active queues: a
	// head-indexed deque, so the pop in nextQueue never reslices away
	// capacity (the append-after-reslice pattern reallocates every
	// rotation). pushRR compacts dead head space before growing.
	rr     []*cfqQueue
	rrHead int
	async  *cfqQueue // shared async pseudo-queue

	merges *merger

	active    *cfqQueue
	sliceEnd  sim.Time
	idleUntil sim.Time
	idling    bool

	// asyncStarved counts sync slices granted while async work waited;
	// 2.6-era CFQ heavily deprioritises async writes but must not starve
	// them forever.
	asyncStarved int

	nextPos int64
	pending int
}

type cfqQueue struct {
	stream block.StreamID
	sync   bool
	list   sortedList
	// expiry holds the queue's requests in arrival order, each with its
	// cfq_check_fifo deadline (see take). It is in use only when the
	// queue's expiry knob (FifoExpireSync/Async) is non-zero; then it
	// holds exactly the requests on list.
	expiry fifo
	onRR   bool
}

// NewCFQ returns a CFQ elevator with the given tunables.
func NewCFQ(p Params) *CFQSched {
	s := &CFQSched{
		p:      p,
		queues: make(map[block.StreamID]*cfqQueue),
		merges: newMerger(p.MaxSectors),
	}
	s.async = &cfqQueue{stream: -1, sync: false}
	return s
}

// Name implements block.Elevator.
func (s *CFQSched) Name() string { return CFQ }

func (s *CFQSched) queueFor(r *block.Request) *cfqQueue {
	if !r.IsSyncFull() {
		return s.async
	}
	q, ok := s.queues[r.Stream]
	if !ok {
		q = &cfqQueue{stream: r.Stream, sync: true}
		s.queues[r.Stream] = q
	}
	return q
}

// Add implements block.Elevator.
func (s *CFQSched) Add(r *block.Request, now sim.Time) {
	if g := s.merges.mergeOrAdd(r); g != nil {
		if g.Sector == r.Sector {
			// Front merge moved g's start sector; restore sort order.
			s.queueFor(g).list.refresh(g)
		}
		return
	}
	q := s.queueFor(r)
	q.list.insert(r)
	if expire := s.fifoExpire(q); expire > 0 {
		q.expiry.push(r, now.Add(expire))
	}
	s.pending++
	if !q.onRR {
		q.onRR = true
		s.pushRR(q)
	}
	if s.idling && s.active == q {
		if now < s.sliceEnd {
			// The stream we idled for came back; the slice resumes.
			s.idling = false
			s.p.Decisions.RecordStream(now, obs.DecCFQResume, int64(q.stream))
		} else {
			// The slice expired while we idled: never resume a stale
			// slice — expire it so the stream competes for a fresh one
			// through the round-robin ring like everybody else.
			s.expire(now)
		}
	}
}

// Dispatch implements block.Elevator.
func (s *CFQSched) Dispatch(now sim.Time) (*block.Request, sim.Time) {
	if s.pending == 0 {
		if s.idling && now < s.idleUntil {
			return nil, s.idleUntil
		}
		s.expire(now)
		return nil, 0
	}

	if s.active != nil {
		switch {
		case now >= s.sliceEnd:
			s.expire(now)
		case s.active.list.len() > 0:
			return s.take(s.active, now), 0
		case s.active.sync && s.idling:
			if now < s.idleUntil {
				return nil, s.idleUntil
			}
			s.expire(now)
		default:
			s.expire(now)
		}
	}

	q := s.nextQueue()
	if q == nil {
		return nil, 0
	}
	s.active = q
	s.idling = false
	s.p.Decisions.RecordStream(now, obs.DecCFQSlice, int64(q.stream))
	slice := s.p.SliceSync
	if !q.sync {
		slice = s.p.SliceAsync
	}
	s.sliceEnd = now.Add(slice)
	return s.take(q, now), 0
}

// nextQueue picks the next queue with work from the round-robin ring.
// Sync queues are preferred: async writes run in the gaps between sync
// activity, with a starvation cap (maxAsyncStarve sync slices) so heavy
// read traffic cannot block writeback forever.
func (s *CFQSched) nextQueue() *cfqQueue {
	const maxAsyncStarve = 16
	if !s.asyncPending() {
		// No async work is waiting, so any accumulated starvation debt is
		// void. Without this reset a later async burst would inherit stale
		// debt and jump ahead of sync queues on arrival.
		s.asyncStarved = 0
	} else if s.asyncStarved >= maxAsyncStarve {
		// The starvation cap is due: serve the async pseudo-queue now,
		// wherever it sits on the ring. Deferring until the scan reaches
		// it would let every busy sync stream overtake it once more per
		// rotation — with more sync streams than the cap, the cap would
		// never fire at all (exposed by multi-job fleet hosts, where a
		// Dom0 queue carries dozens of sync streams).
		s.asyncStarved = 0
		return s.async
	}
	var firstAsync *cfqQueue
	scanned := 0
	n := len(s.rr) - s.rrHead
	for scanned < n {
		q := s.popRR()
		scanned++
		if q.list.len() == 0 {
			q.onRR = false
			n--
			scanned--
			continue
		}
		if !q.sync {
			if firstAsync == nil {
				firstAsync = q
			}
			s.pushRR(q)
			continue
		}
		// Sync queue with work.
		s.pushRR(q)
		if firstAsync != nil || s.asyncPending() {
			s.asyncStarved++
		}
		return q
	}
	if firstAsync != nil {
		s.asyncStarved = 0
		return firstAsync
	}
	return nil
}

// popRR removes and returns the ring's front queue; the caller guarantees
// the ring is nonempty. The vacated slot is nil'd so the dead prefix does
// not root departed queues.
func (s *CFQSched) popRR() *cfqQueue {
	q := s.rr[s.rrHead]
	s.rr[s.rrHead] = nil
	s.rrHead++
	if s.rrHead == len(s.rr) {
		s.rr = s.rr[:0]
		s.rrHead = 0
	}
	return q
}

// pushRR appends to the ring, first reclaiming the dead head prefix when
// the backing array is full so rotation never reallocates in steady state.
func (s *CFQSched) pushRR(q *cfqQueue) {
	if s.rrHead > 0 && len(s.rr) == cap(s.rr) {
		n := copy(s.rr, s.rr[s.rrHead:])
		for i := n; i < len(s.rr); i++ {
			s.rr[i] = nil
		}
		s.rr = s.rr[:n]
		s.rrHead = 0
	}
	s.rr = append(s.rr, q)
}

func (s *CFQSched) asyncPending() bool { return s.async.list.len() > 0 }

// fifoExpire is q's fifo deadline knob; zero disables q's expiry fifo.
func (s *CFQSched) fifoExpire(q *cfqQueue) sim.Duration {
	if q.sync {
		return s.p.FifoExpireSync
	}
	return s.p.FifoExpireAsync
}

// expire ends the current slice. An emptied queue stays on the ring with
// onRR set and is dropped lazily by the nextQueue scan; because nextQueue
// re-appends a queue exactly once when selecting it (and Add checks onRR
// before appending), a queue never appears on rr twice — pinned by
// TestCFQNoDuplicateQueuesOnRing.
func (s *CFQSched) expire(now sim.Time) {
	if s.active != nil {
		s.p.Decisions.RecordStream(now, obs.DecCFQExpire, int64(s.active.stream))
	}
	s.active = nil
	s.idling = false
}

// take picks q's next request: the sector-sorted scan candidate, unless
// the queue's oldest request has outlived its fifo deadline
// (cfq_check_fifo) — the aging bound that keeps a deep, continuously
// refilled queue from bypassing one old request sweep after sweep.
func (s *CFQSched) take(q *cfqQueue, now sim.Time) *block.Request {
	r := q.list.next(s.nextPos)
	if f, deadline := q.expiry.front(); f != nil && f != r && deadline <= now {
		s.p.Decisions.RecordStream(now, obs.DecCFQFifoExpired, int64(q.stream))
		r = f
	}
	q.list.remove(r)
	if s.fifoExpire(q) > 0 {
		q.expiry.remove(r)
	}
	s.merges.remove(r)
	s.pending--
	s.nextPos = r.End()
	return r
}

// Completed implements block.Elevator. When the active sync queue runs dry,
// CFQ arms its idle timer rather than immediately moving on (slice_idle).
func (s *CFQSched) Completed(r *block.Request, now sim.Time) {
	if s.active == nil || !s.active.sync {
		return
	}
	if r.Stream != s.active.stream || !r.IsSyncFull() {
		return
	}
	if s.active.list.len() == 0 && s.p.SliceIdle > 0 && now < s.sliceEnd {
		s.idling = true
		s.p.Decisions.RecordStream(now, obs.DecCFQIdle, int64(s.active.stream))
		s.idleUntil = now.Add(s.p.SliceIdle)
		if s.idleUntil > s.sliceEnd {
			s.idleUntil = s.sliceEnd
		}
	}
}

// Pending implements block.Elevator.
func (s *CFQSched) Pending() int { return s.pending }
