package iosched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

func req(op block.Op, sector int64, stream block.StreamID) *block.Request {
	return block.NewRequest(op, sector, 8, op == block.Read, stream)
}

// ---------------------------------------------------------------------------
// Noop
// ---------------------------------------------------------------------------

func TestNoopFIFOOrder(t *testing.T) {
	eng := sim.New(1)
	s := NewNoop(DefaultParams())
	sectors := []int64{500, 100, 300, 200}
	for _, sec := range sectors {
		s.Add(req(block.Read, sec, 1), eng.Now())
	}
	got := drain(t, s, eng)
	for i, r := range got {
		if r.Sector != sectors[i] {
			t.Fatalf("noop reordered: got %d at %d", r.Sector, i)
		}
	}
}

func TestNoopStillMerges(t *testing.T) {
	eng := sim.New(1)
	s := NewNoop(DefaultParams())
	s.Add(req(block.Write, 100, 1), eng.Now())
	w2 := block.NewRequest(block.Write, 108, 8, false, 1)
	s.Add(w2, eng.Now())
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, adjacent write not merged", s.Pending())
	}
	got := drain(t, s, eng)
	if len(got) != 1 || got[0].Count != 16 {
		t.Fatalf("merged dispatch wrong: %v", got)
	}
}

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

func TestDeadlineSortsWithinBatch(t *testing.T) {
	eng := sim.New(1)
	s := NewDeadline(DefaultParams())
	for _, sec := range []int64{500, 100, 300} {
		s.Add(req(block.Read, sec, 1), eng.Now())
	}
	got := drain(t, s, eng)
	if got[0].Sector != 100 || got[1].Sector != 300 || got[2].Sector != 500 {
		t.Fatalf("not sector-sorted: %v", got)
	}
}

func TestDeadlinePrefersReads(t *testing.T) {
	eng := sim.New(1)
	s := NewDeadline(DefaultParams())
	s.Add(req(block.Write, 100, 1), eng.Now())
	s.Add(req(block.Read, 900, 2), eng.Now())
	r, _ := s.Dispatch(eng.Now())
	if r.Op != block.Read {
		t.Fatalf("first dispatch = %v, want the read", r)
	}
}

func TestDeadlineWritesNotStarvedForever(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewDeadline(p)
	s.Add(req(block.Write, 10_000, 99), eng.Now())
	writeServed := false
	// Keep a read stream saturated; the write must still be dispatched
	// within a bounded number of read batches.
	next := int64(0)
	for i := 0; i < 2000 && !writeServed; i++ {
		s.Add(req(block.Read, next, 1), eng.Now())
		next += 8
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall")
		}
		if r.Op == block.Write {
			writeServed = true
		}
		s.Completed(r, eng.Now())
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	if !writeServed {
		t.Fatal("write starved by continuous reads")
	}
}

func TestDeadlineExpiredRequestJumpsQueue(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewDeadline(p)
	old := req(block.Read, 900, 1)
	s.Add(old, eng.Now())
	// Let it expire, then add a batch of low-sector reads.
	eng.RunUntil(eng.Now().Add(p.ReadExpire + sim.Millisecond))
	s.Add(req(block.Read, 100, 1), eng.Now())
	r, _ := s.Dispatch(eng.Now())
	if r != old {
		t.Fatalf("expired request not served first: got %v", r)
	}
}

// ---------------------------------------------------------------------------
// Anticipatory
// ---------------------------------------------------------------------------

func TestAnticipationHoldsForSameStream(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewAnticipatory(p)
	// Stream 1 read completes; stream 2 has a far request pending.
	r1 := req(block.Read, 100, 1)
	s.Add(r1, eng.Now())
	got, _ := s.Dispatch(eng.Now())
	if got != r1 {
		t.Fatal("dispatch r1")
	}
	s.Add(req(block.Read, 1_000_000, 2), eng.Now())
	s.Completed(r1, eng.Now())
	// Now the elevator should anticipate stream 1 rather than seek to
	// stream 2.
	r, wake := s.Dispatch(eng.Now())
	if r != nil {
		t.Fatalf("dispatched %v during anticipation", r)
	}
	if wake != eng.Now().Add(p.AnticExpire) {
		t.Fatalf("wake = %v, want anticUntil", wake)
	}
	// A close request from stream 1 arrives and is served immediately.
	close1 := req(block.Read, 108, 1)
	s.Add(close1, eng.Now())
	r, _ = s.Dispatch(eng.Now())
	if r != close1 {
		t.Fatalf("close request not served: got %v", r)
	}
	if s.Stats().Hits+s.Stats().Armed == 0 {
		t.Fatal("no anticipation accounting")
	}
}

func TestAnticipationTimeoutFallsBack(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewAnticipatory(p)
	r1 := req(block.Read, 100, 1)
	s.Add(r1, eng.Now())
	s.Dispatch(eng.Now())
	far := req(block.Read, 1_000_000, 2)
	s.Add(far, eng.Now())
	s.Completed(r1, eng.Now())
	_, wake := s.Dispatch(eng.Now())
	eng.RunUntil(wake)
	r, _ := s.Dispatch(eng.Now())
	if r != far {
		t.Fatalf("after timeout got %v, want the far request", r)
	}
	if s.Stats().Timeouts == 0 {
		t.Fatal("timeout not recorded")
	}
}

func TestAnticipationDistrustAfterMisses(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	p.AnticMaxMisses = 2
	s := NewAnticipatory(p)
	for i := 0; i < 4; i++ {
		r := req(block.Read, int64(100+i*1000), 1)
		s.Add(r, eng.Now())
		got, _ := s.Dispatch(eng.Now())
		if got == nil {
			t.Fatal("dispatch")
		}
		s.Completed(got, eng.Now())
		// Let every anticipation window time out.
		_, wake := s.Dispatch(eng.Now())
		if wake > eng.Now() {
			eng.RunUntil(wake)
			s.Dispatch(eng.Now())
		}
		// Idle long past the window so trust is not rebuilt.
		eng.RunUntil(eng.Now().Add(sim.Second))
	}
	if s.Stats().Distrust == 0 {
		t.Fatal("stream never distrusted despite repeated misses")
	}
}

func TestAnticipatoryFarSameStreamWaits(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewAnticipatory(p)
	r1 := req(block.Read, 100, 1)
	s.Add(r1, eng.Now())
	s.Dispatch(eng.Now())
	// Same stream, but far beyond AnticCloseSectors.
	far := block.NewRequest(block.Read, 100+p.AnticCloseSectors*4, 8, true, 1)
	s.Add(far, eng.Now())
	s.Completed(r1, eng.Now())
	r, wake := s.Dispatch(eng.Now())
	if r != nil {
		t.Fatalf("far same-stream request broke anticipation: %v", r)
	}
	if wake <= eng.Now() {
		t.Fatal("no wake hint while waiting")
	}
}

func TestAnticipatoryWritesNotAnticipated(t *testing.T) {
	eng := sim.New(1)
	s := NewAnticipatory(DefaultParams())
	w := block.NewRequest(block.Write, 100, 8, false, 1)
	s.Add(w, eng.Now())
	got, _ := s.Dispatch(eng.Now())
	s.Completed(got, eng.Now())
	s.Add(block.NewRequest(block.Write, 5000, 8, false, 2), eng.Now())
	r, _ := s.Dispatch(eng.Now())
	if r == nil {
		t.Fatal("write completion must not arm anticipation")
	}
}

// ---------------------------------------------------------------------------
// CFQ
// ---------------------------------------------------------------------------

func TestCFQRoundRobinFairness(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	p.SliceIdle = 0
	s := NewCFQ(p)
	// Three streams, interleaved sync reads.
	for i := 0; i < 30; i++ {
		stream := block.StreamID(i%3 + 1)
		s.Add(req(block.Read, int64(i)*1000, stream), eng.Now())
	}
	// Every stream must be served eventually (strict fairness in count
	// emerges over slices; here we check all are visited).
	seen := map[block.StreamID]int{}
	got := drain(t, s, eng)
	for _, r := range got {
		seen[r.Stream]++
	}
	if len(got) != 30 {
		t.Fatalf("drained %d", len(got))
	}
	for st := block.StreamID(1); st <= 3; st++ {
		if seen[st] != 10 {
			t.Fatalf("stream %d served %d times", st, seen[st])
		}
	}
}

func TestCFQSliceStickiness(t *testing.T) {
	eng := sim.New(1)
	s := NewCFQ(DefaultParams())
	// Two streams with several requests each; within a slice, consecutive
	// dispatches come from one stream.
	// Sectors are spaced so requests cannot merge.
	for i := 0; i < 5; i++ {
		s.Add(req(block.Read, int64(i*1000), 1), eng.Now())
		s.Add(req(block.Read, int64(1_000_000+i*1000), 2), eng.Now())
	}
	first, _ := s.Dispatch(eng.Now())
	second, _ := s.Dispatch(eng.Now())
	third, _ := s.Dispatch(eng.Now())
	if first.Stream != second.Stream || second.Stream != third.Stream {
		t.Fatalf("slice not sticky: %v %v %v", first.Stream, second.Stream, third.Stream)
	}
}

func TestCFQIdlingWindow(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewCFQ(p)
	r1 := req(block.Read, 100, 1)
	s.Add(r1, eng.Now())
	s.Add(req(block.Read, 1_000_000, 2), eng.Now())
	got, _ := s.Dispatch(eng.Now())
	if got != r1 {
		t.Fatalf("first dispatch %v", got)
	}
	s.Completed(r1, eng.Now())
	// Active sync queue is empty: CFQ idles instead of switching.
	r, wake := s.Dispatch(eng.Now())
	if r != nil {
		t.Fatalf("dispatched %v during slice idle", r)
	}
	if wake != eng.Now().Add(p.SliceIdle) {
		t.Fatalf("idle wake = %v", wake)
	}
	// Same-stream arrival resumes the slice.
	cont := req(block.Read, 108, 1)
	s.Add(cont, eng.Now())
	r, _ = s.Dispatch(eng.Now())
	if r != cont {
		t.Fatalf("idle not broken by same-stream arrival: %v", r)
	}
}

func TestCFQAsyncStarvationBounded(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	p.SliceIdle = 0
	s := NewCFQ(p)
	s.Add(block.NewRequest(block.Write, 1_000_000, 8, false, 9), eng.Now())
	asyncServed := false
	next := int64(0)
	for i := 0; i < 500 && !asyncServed; i++ {
		s.Add(req(block.Read, next, block.StreamID(i%4+1)), eng.Now())
		next += 8
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall")
		}
		if !r.IsSyncFull() {
			asyncServed = true
		}
		s.Completed(r, eng.Now())
		eng.RunUntil(eng.Now().Add(20 * sim.Millisecond))
	}
	if !asyncServed {
		t.Fatal("async write starved past the cap")
	}
}

func TestCFQAsyncServedWhenNoSyncWork(t *testing.T) {
	eng := sim.New(1)
	s := NewCFQ(DefaultParams())
	w := block.NewRequest(block.Write, 100, 8, false, 1)
	s.Add(w, eng.Now())
	r, _ := s.Dispatch(eng.Now())
	if r != w {
		t.Fatalf("async write not served on idle disk: %v", r)
	}
}

// ---------------------------------------------------------------------------
// Cross-scheduler properties
// ---------------------------------------------------------------------------

// Property: under a random workload, every scheduler dispatches every
// submitted sector range exactly once (merging may coalesce requests, but
// the union of dispatched extents must equal the union of submitted ones).
func TestQuickSchedulersLoseNothing(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				eng := sim.New(seed)
				s := MustNew(name, DefaultParams())
				type ext struct{ a, b int64 }
				var want []ext
				n := 20 + rng.Intn(60)
				submitted := 0
				dispatchedSectors := int64(0)
				wantSectors := int64(0)
				for submitted < n {
					burst := 1 + rng.Intn(4)
					for k := 0; k < burst && submitted < n; k++ {
						op := block.Read
						if rng.Intn(2) == 0 {
							op = block.Write
						}
						sector := int64(rng.Intn(1000)) * 16
						count := int64(8 + rng.Intn(8))
						r := block.NewRequest(op, sector, count, op == block.Read, block.StreamID(rng.Intn(4)))
						want = append(want, ext{sector, sector + count})
						wantSectors += count
						s.Add(r, eng.Now())
						submitted++
					}
					// Service a few.
					for k := 0; k < 1+rng.Intn(3); k++ {
						r, wake := s.Dispatch(eng.Now())
						if r == nil {
							if wake > eng.Now() {
								eng.RunUntil(wake)
							}
							continue
						}
						dispatchedSectors += r.Count
						s.Completed(r, eng.Now())
						eng.RunUntil(eng.Now().Add(sim.Duration(rng.Intn(5)) * sim.Millisecond))
					}
				}
				// Drain the rest.
				for guard := 0; s.Pending() > 0; guard++ {
					if guard > 100000 {
						return false
					}
					r, wake := s.Dispatch(eng.Now())
					if r == nil {
						if wake <= eng.Now() {
							return false
						}
						eng.RunUntil(wake)
						continue
					}
					dispatchedSectors += r.Count
					s.Completed(r, eng.Now())
				}
				return dispatchedSectors == wantSectors
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCFQAsyncStarvationBoundedManyStreams pins the cap against a ring
// wider than maxAsyncStarve: with 40 busy sync streams, the async
// pseudo-queue must still be served within the 16-sync-slice cap instead
// of waiting a full ring rotation. (Before the fix, the cap only fired
// when the scan happened to reach the async queue, so enough sync
// streams starved async writes indefinitely.)
func TestCFQAsyncStarvationBoundedManyStreams(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	p.SliceIdle = 0
	s := NewCFQ(p)
	const streams = 40
	next := int64(0)
	// Every sync stream has standing work before the async write arrives.
	for i := 0; i < streams; i++ {
		s.Add(req(block.Read, next, block.StreamID(i+1)), eng.Now())
		next += 8
	}
	s.Add(block.NewRequest(block.Write, 1_000_000, 8, false, 99), eng.Now())
	syncSlices := 0
	for i := 0; i < 10_000; i++ {
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall")
		}
		if !r.IsSyncFull() {
			if syncSlices > 17 {
				t.Fatalf("async write served only after %d sync slices", syncSlices)
			}
			return
		}
		syncSlices++
		// Refill the stream so every queue stays busy.
		s.Add(req(block.Read, next, r.Stream), eng.Now())
		next += 8
		s.Completed(r, eng.Now())
		// Advance past the slice so each dispatch grants a fresh slice.
		eng.RunUntil(eng.Now().Add(p.SliceSync + sim.Millisecond))
	}
	t.Fatal("async write never served")
}

// TestCFQAsyncFifoExpiry pins cfq_check_fifo on the async pseudo-queue:
// a write parked behind the C-SCAN head is bypassed by a continuously
// refilled backlog ahead of the head until its fifo deadline
// (FifoExpireAsync) passes, after which the next async dispatch must
// serve it instead of the sector-sorted candidate.
func TestCFQAsyncFifoExpiry(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewCFQ(p)

	// Establish the scan head above the victim's sector.
	s.Add(block.NewRequest(block.Write, 10_000, 8, false, 1), eng.Now())
	if r, _ := s.Dispatch(eng.Now()); r == nil || r.Sector != 10_000 {
		t.Fatalf("priming dispatch got %v", r)
	}

	victim := block.NewRequest(block.Write, 0, 8, false, 2)
	s.Add(victim, eng.Now())
	queued := eng.Now()

	const perReq = 5 * sim.Millisecond
	next := int64(10_008)
	for i := 0; i < 1000; i++ {
		// Feed the backlog ahead of the head faster than it drains, so the
		// scan never wraps back to sector 0 on its own.
		s.Add(block.NewRequest(block.Write, next, 8, false, 1), eng.Now())
		next += 8
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall with pending work")
		}
		if r == victim {
			waited := eng.Now().Sub(queued)
			if waited < p.FifoExpireAsync {
				t.Fatalf("victim served after %v, before its %v fifo deadline", waited, p.FifoExpireAsync)
			}
			if waited > p.FifoExpireAsync+p.SliceAsync+2*perReq {
				t.Fatalf("victim served only %v after queueing (deadline %v)", waited, p.FifoExpireAsync)
			}
			return
		}
		s.Completed(r, eng.Now())
		eng.RunUntil(eng.Now().Add(perReq))
	}
	t.Fatal("victim write never served: fifo deadline ignored")
}

// cfqFifoRun drives CFQ with p through a deep mixed backlog — three sync
// read streams and two async write streams at random sectors, a quarter
// of them contiguous with their stream's previous request so that some
// merge — serving one request per 5 ms. It checks that every request that
// did not merge dispatches exactly once and that each queue's expiry fifo
// is in use exactly when its knob is non-zero, holding the same requests
// as its sorted list. It returns how many dispatches departed from their
// queue's C-SCAN candidate, keyed by whether the queue is sync.
func cfqFifoRun(t *testing.T, p Params) map[bool]int {
	t.Helper()
	offScan := map[bool]int{}
	eng := sim.New(1)
	s := NewCFQ(p)
	rng := rand.New(rand.NewSource(7))
	var queued []*block.Request
	served := map[*block.Request]int{}
	last := map[block.StreamID]int64{}
	add := func() {
		stream := block.StreamID(1 + rng.Intn(5))
		op, sync := block.Read, true
		if stream > 3 {
			op, sync = block.Write, false
		}
		sector := 8 * int64(rng.Intn(100_000))
		if end, ok := last[stream]; ok && rng.Intn(4) == 0 {
			sector = end
		}
		r := block.NewRequest(op, sector, 8, sync, stream)
		last[stream] = r.End()
		before := s.Pending()
		s.Add(r, eng.Now())
		if s.Pending() > before {
			queued = append(queued, r)
		}
	}
	checkFifos := func() {
		qs := []*cfqQueue{s.async}
		for _, q := range s.queues {
			qs = append(qs, q)
		}
		for _, q := range qs {
			inFifo := map[*block.Request]bool{}
			for _, e := range q.expiry.reqs {
				inFifo[e.r] = true
			}
			if s.fifoExpire(q) == 0 {
				if len(inFifo) != 0 {
					t.Fatalf("stream %d: expiry fifo in use with its knob at 0", q.stream)
				}
				continue
			}
			if len(inFifo) != q.expiry.len() || q.expiry.len() != q.list.len() {
				t.Fatalf("stream %d: expiry fifo holds %d requests, sorted list %d", q.stream, q.expiry.len(), q.list.len())
			}
			for _, r := range q.list.reqs {
				if !inFifo[r] {
					t.Fatalf("stream %d: %v queued but not in the expiry fifo", q.stream, r)
				}
			}
		}
	}
	dispatch := func() bool {
		cand := map[*cfqQueue]*block.Request{s.async: s.async.list.next(s.nextPos)}
		for _, q := range s.queues {
			cand[q] = q.list.next(s.nextPos)
		}
		r, wake := s.Dispatch(eng.Now())
		if r == nil {
			if wake <= eng.Now() {
				return false
			}
			eng.RunUntil(wake)
			return true
		}
		served[r]++
		if q := s.queueFor(r); r != cand[q] {
			offScan[q.sync]++
		}
		eng.RunUntil(eng.Now().Add(5 * sim.Millisecond))
		s.Completed(r, eng.Now())
		checkFifos()
		return true
	}
	for i := 0; i < 600; i++ {
		add()
		if i%2 == 0 {
			add()
		}
		dispatch()
	}
	for s.Pending() > 0 {
		if !dispatch() {
			t.Fatalf("stalled with %d pending", s.Pending())
		}
	}
	if len(served) != len(queued) {
		t.Fatalf("dispatched %d distinct requests, queued %d unmerged", len(served), len(queued))
	}
	for _, r := range queued {
		if served[r] != 1 {
			t.Fatalf("%v dispatched %d times", r, served[r])
		}
	}
	return offScan
}

// TestCFQFifoExpiryDisabled runs CFQ with one or both fifo expiry knobs at
// zero, which leaves that class's expiry fifo unused. Every request still
// dispatches exactly once, and a class with its knob at zero dispatches in
// pure C-SCAN order. A class with its knob at the default departs from
// C-SCAN on the same backlog, so the workload does exercise expiry.
func TestCFQFifoExpiryDisabled(t *testing.T) {
	def := DefaultParams()
	cases := []struct {
		name        string
		async, sync sim.Duration
	}{
		{"both-off", 0, 0},
		{"sync-off", def.FifoExpireAsync, 0},
		{"async-off", 0, def.FifoExpireSync},
		{"defaults", def.FifoExpireAsync, def.FifoExpireSync},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := DefaultParams()
			p.FifoExpireAsync, p.FifoExpireSync = c.async, c.sync
			off := cfqFifoRun(t, p)
			for sync, knob := range map[bool]sim.Duration{false: c.async, true: c.sync} {
				if knob == 0 && off[sync] != 0 {
					t.Errorf("sync=%v: %d dispatches left C-SCAN order with fifo expiry off", sync, off[sync])
				}
				if knob != 0 && off[sync] == 0 {
					t.Errorf("sync=%v: fifo expiry never fired on the backlog", sync)
				}
			}
		})
	}
}
