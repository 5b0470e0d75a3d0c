package disk

import (
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

func testDisk() (*sim.Engine, *Disk) {
	eng := sim.New(1)
	return eng, New(eng, DefaultConfig())
}

func TestServiceTimeRegimes(t *testing.T) {
	_, d := testDisk()
	cfg := d.Config()

	// Adjacent: no positioning.
	r := block.NewRequest(block.Read, 1000, 256, true, 1)
	seek, rot, xfer := d.ServiceParts(r, 1000)
	if seek+rot != 0 {
		t.Fatalf("adjacent positioning = %v", seek+rot)
	}
	if xfer <= 0 {
		t.Fatalf("transfer = %v", xfer)
	}

	// Within NearDistance: still free.
	seek, rot, _ = d.ServiceParts(r, 1000-cfg.NearDistance)
	if seek+rot != 0 {
		t.Fatalf("near positioning = %v", seek+rot)
	}

	// Short forward hop: settle only.
	r2 := block.NewRequest(block.Read, cfg.NearDistance*4, 256, true, 1)
	seek, rot, _ = d.ServiceParts(r2, 0)
	if seek+rot != cfg.SettleTime {
		t.Fatalf("forward-zone positioning = %v, want settle %v", seek+rot, cfg.SettleTime)
	}

	// Backward hop of the same distance: full seek + rotation.
	r3 := block.NewRequest(block.Read, 0, 256, true, 1)
	seek, rot, _ = d.ServiceParts(r3, cfg.NearDistance*4)
	if seek+rot <= cfg.SettleTime {
		t.Fatalf("backward positioning = %v, should exceed settle", seek+rot)
	}

	// Far forward hop: full cost, larger than a nearer far hop.
	far := block.NewRequest(block.Read, cfg.Sectors-1000, 256, true, 1)
	mid := block.NewRequest(block.Read, cfg.ZoneDistance*4, 256, true, 1)
	seekFar, rotFar, _ := d.ServiceParts(far, 0)
	seekMid, rotMid, _ := d.ServiceParts(mid, 0)
	if seekFar+rotFar <= seekMid+rotMid {
		t.Fatalf("seek not increasing with distance: far %v <= mid %v", seekFar+rotFar, seekMid+rotMid)
	}
}

func TestTransferScalesWithSize(t *testing.T) {
	_, d := testDisk()
	small := block.NewRequest(block.Read, 0, 256, true, 1)
	big := block.NewRequest(block.Read, 0, 1024, true, 1)
	_, _, xs := d.ServiceParts(small, 0)
	_, _, xb := d.ServiceParts(big, 0)
	ratio := float64(xb) / float64(xs)
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("transfer ratio = %.2f, want ~4", ratio)
	}
}

func TestServiceCompletesAndMovesHead(t *testing.T) {
	eng, d := testDisk()
	r := block.NewRequest(block.Write, 5000, 128, false, 1)
	done := false
	d.Service(r, func(*block.Request) { done = true })
	if done {
		t.Fatal("completion before any time passed")
	}
	eng.Run()
	if !done {
		t.Fatal("never completed")
	}
	if d.Head() != r.End() {
		t.Fatalf("head = %d, want %d", d.Head(), r.End())
	}
	st := d.Stats()
	if st.Requests != 1 || st.Bytes != r.Bytes() || st.Seeks != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.BusyTime != st.SeekTime+st.TransferTime+d.Config().Overhead {
		t.Fatalf("busy != seek+transfer+overhead: %+v", st)
	}
}

func TestSequentialRunCountsOneSeek(t *testing.T) {
	eng, d := testDisk()
	pos := int64(10_000)
	for i := 0; i < 5; i++ {
		r := block.NewRequest(block.Read, pos, 256, true, 1)
		pos += 256
		d.Service(r, func(*block.Request) {})
		eng.Run()
	}
	if d.Stats().Seeks != 1 {
		t.Fatalf("seeks = %d for a sequential run, want 1", d.Stats().Seeks)
	}
}

func TestOverlappingServicePanics(t *testing.T) {
	_, d := testDisk()
	d.Service(block.NewRequest(block.Read, 0, 8, true, 1), func(*block.Request) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for overlapping service")
		}
	}()
	d.Service(block.NewRequest(block.Read, 100, 8, true, 1), func(*block.Request) {})
}

func TestOnServiceHook(t *testing.T) {
	eng, d := testDisk()
	var seen []sim.Duration
	d.OnService = func(_ *block.Request, pos, _ sim.Duration) { seen = append(seen, pos) }
	d.Service(block.NewRequest(block.Read, 1_000_000, 8, true, 1), func(*block.Request) {})
	eng.Run()
	if len(seen) != 1 || seen[0] <= 0 {
		t.Fatalf("hook: %v", seen)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	eng := sim.New(1)
	bad := DefaultConfig()
	bad.TransferMBps = 0
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid config")
		}
	}()
	New(eng, bad)
}
