package analyze

import (
	"math"
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

// liveDev completes requests after a fixed latency.
type liveDev struct {
	eng *sim.Engine
	lat sim.Duration
}

func (d *liveDev) Service(r *block.Request, done func(*block.Request)) {
	d.eng.Schedule(d.lat, func() { done(r) })
}

// liveFIFO is a minimal pass-through elevator.
type liveFIFO struct{ q []*block.Request }

func (f *liveFIFO) Name() string                       { return "fifo" }
func (f *liveFIFO) Add(r *block.Request, _ sim.Time)   { f.q = append(f.q, r) }
func (f *liveFIFO) Completed(*block.Request, sim.Time) {}
func (f *liveFIFO) Pending() int                       { return len(f.q) }
func (f *liveFIFO) Dispatch(_ sim.Time) (*block.Request, sim.Time) {
	if len(f.q) == 0 {
		return nil, 0
	}
	r := f.q[0]
	f.q = f.q[1:]
	return r, 0
}

// noNaN fails if any float field of the window is NaN or Inf.
func noNaN(t *testing.T, w WindowStats) {
	t.Helper()
	for name, v := range map[string]float64{
		"DurS": w.DurS, "ReadMB": w.ReadMB, "WriteMB": w.WriteMB,
		"ReadMBps": w.ReadMBps, "WriteMBps": w.WriteMBps,
		"ReadShare": w.ReadShare, "SyncShare": w.SyncShare,
		"SeekPerDispatch": w.SeekPerDispatch,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v, want finite", name, v)
		}
	}
}

// TestLiveBeforeFirstSample pins the empty-sample contract: Live on a
// sampler whose queues have produced nothing (and on one with no queues
// at all, built by NewSampler or the zero value) returns a fully defined
// empty sample, and windows over such samples contain zeros, never NaN
// rates or stale values.
func TestLiveBeforeFirstSample(t *testing.T) {
	// No queues attached at all.
	for _, bare := range []*Sampler{NewSampler(), {}} {
		ls := bare.Live(sim.Time(0))
		if ls.Depth == nil || ls.CumMB == nil || ls.Completed == nil || ls.SeekSectors == nil {
			t.Fatal("empty sampler returned nil maps")
		}
		if ls.Requests != 0 || len(ls.Depth) != 0 {
			t.Fatalf("empty sampler not empty: %+v", ls)
		}
		noNaN(t, bare.Level(sim.Time(0), "dom0").Window(LevelSample{}))
	}

	// A queue attached but idle: the level exists with zero counters.
	eng := sim.New(1)
	s := NewSampler()
	q := block.NewQueue(eng, &liveFIFO{}, &liveDev{eng: eng, lat: sim.Millisecond}, 1)
	s.AttachQueue(q, "dom0")
	first := s.Live(eng.Now())
	if first.Depth["dom0"] != 0 || first.CumMB["dom0"] != 0 || first.Completed["dom0"] != 0 {
		t.Fatalf("pre-traffic sample not zero: %+v", first)
	}
	w := s.Level(eng.Now(), "dom0").Window(LevelSample{})
	noNaN(t, w)
	if w != (WindowStats{}) {
		t.Fatalf("pre-traffic window not zero: %+v", w)
	}
}

// TestZeroDeltaWindow pins that a window between two identical samples
// (no completions, no time) is all-zero — no stale previous-window rates.
func TestZeroDeltaWindow(t *testing.T) {
	eng := sim.New(1)
	s := NewSampler()
	q := block.NewQueue(eng, &liveFIFO{}, &liveDev{eng: eng, lat: sim.Millisecond}, 1)
	s.AttachQueue(q, "dom0")

	q.Submit(block.NewRequest(block.Read, 0, 2048, true, 1)) // 1 MB
	eng.Run()

	busy := s.Level(eng.Now(), "dom0")
	active := busy.Window(LevelSample{})
	if active.ReadMB != 1 || active.Requests != 1 || active.ReadShare != 1 {
		t.Fatalf("active window wrong: %+v", active)
	}

	// Identical samples: everything zero, nothing carried over.
	idle := busy.Window(busy)
	noNaN(t, idle)
	if idle != (WindowStats{}) {
		t.Fatalf("zero-delta window not zero: %+v", idle)
	}

	// Zero-duration window with the clock stopped but samples re-taken.
	again := s.Level(eng.Now(), "dom0").Window(busy)
	noNaN(t, again)
	if again.ReadMBps != 0 || again.Requests != 0 {
		t.Fatalf("zero-duration window leaked rates: %+v", again)
	}
}

// TestWindowFeatures pins the feature extraction the controller classifies
// on: read/write split, sync share, and dispatch seek distance.
func TestWindowFeatures(t *testing.T) {
	eng := sim.New(1)
	s := NewSampler()
	q := block.NewQueue(eng, &liveFIFO{}, &liveDev{eng: eng, lat: sim.Millisecond}, 1)
	s.AttachQueue(q, "dom0")

	prev := s.Level(eng.Now(), "dom0")

	// 3 MB of sync reads, 1 MB of async write; sequential then a jump.
	q.Submit(block.NewRequest(block.Read, 0, 2048, true, 1))
	q.Submit(block.NewRequest(block.Read, 2048, 2048, true, 1))  // seq: seek 0
	q.Submit(block.NewRequest(block.Read, 10240, 2048, true, 1)) // jump: 6144
	q.Submit(block.NewRequest(block.Write, 0, 2048, false, 2))   // jump: 12288
	eng.Run()

	w := s.Level(eng.Now(), "dom0").Window(prev)
	noNaN(t, w)
	if w.ReadMB != 3 || w.WriteMB != 1 {
		t.Fatalf("volumes: %+v", w)
	}
	if w.ReadShare != 0.75 {
		t.Fatalf("ReadShare = %v, want 0.75", w.ReadShare)
	}
	if w.SyncShare != 0.75 {
		t.Fatalf("SyncShare = %v, want 0.75 (3 sync of 4)", w.SyncShare)
	}
	if w.Requests != 4 {
		t.Fatalf("Requests = %d, want 4", w.Requests)
	}
	// Seeks: 0 (first), 0 (sequential), 6144, 12288 over 4 dispatches.
	if want := float64(6144+12288) / 4; w.SeekPerDispatch != want {
		t.Fatalf("SeekPerDispatch = %v, want %v", w.SeekPerDispatch, want)
	}
	if w.DurS <= 0 || w.ReadMBps <= 0 {
		t.Fatalf("rates not positive over active window: %+v", w)
	}
}

// TestLevelMatchesLive pins that the controller's per-level read and the
// stream's full sample report the same counters, with or without
// history, and that only a history sampler records what Finalize reads.
func TestLevelMatchesLive(t *testing.T) {
	for _, s := range []*Sampler{NewSampler(), {}} {
		eng := sim.New(1)
		q := block.NewQueue(eng, &liveFIFO{}, &liveDev{eng: eng, lat: sim.Millisecond}, 1)
		s.AttachQueue(q, "dom0")
		q.Submit(block.NewRequest(block.Read, 0, 2048, true, 1))
		q.Submit(block.NewRequest(block.Write, 8192, 1024, false, 2))
		q.Submit(block.NewRequest(block.Read, 2048, 512, true, 1))
		eng.RunUntil(sim.Time(sim.Millisecond))
		now := eng.Now()
		live, lvl := s.Live(now), s.Level(now, "dom0")
		want := LevelSample{
			SimTimeS:    live.SimTimeS,
			Depth:       live.Depth["dom0"],
			CumReadMB:   live.CumReadMB["dom0"],
			CumWriteMB:  live.CumWriteMB["dom0"],
			Completed:   live.Completed["dom0"],
			SyncDone:    live.SyncDone["dom0"],
			Dispatched:  live.Dispatched["dom0"],
			SeekSectors: live.SeekSectors["dom0"],
		}
		if lvl != want || lvl.Completed != 1 || lvl.Depth != 1 || lvl.Dispatched != 2 {
			t.Fatalf("history %v: Level = %+v, Live's dom0 = %+v", s.history, lvl, want)
		}
		if got := s.levels["dom0"].bytes.chunks != nil; got != s.history {
			t.Fatalf("history %v: completed-bytes log recorded = %v", s.history, got)
		}
	}
}
