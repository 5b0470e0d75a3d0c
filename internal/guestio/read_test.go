package guestio

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
	"adaptmr/internal/xen"
)

// refRead is the closure-based form of Read: it splits the read's extents
// into a pieces slice up front, then submits readahead slugs with one
// completion closure per slug sharing a countdown.
func refRead(f *File, stream block.StreamID, off, length int64, cb func()) {
	if length <= 0 {
		f.fs.eng.Schedule(0, cb)
		return
	}
	offSec := off / block.SectorSize
	cntSec := (off+length+block.SectorSize-1)/block.SectorSize - offSec
	if offSec+cntSec > f.size {
		panic("guestio: read past EOF")
	}
	fs := f.fs
	if fs.cache.covers(f, offSec, cntSec) {
		fs.cache.touch(f)
		d := sim.DurationFromSeconds(float64(length) / fs.cfg.MemCopyBps)
		fs.eng.Schedule(d, cb)
		return
	}
	type piece struct{ sector, count int64 }
	var pieces []piece
	for _, e := range f.sectorsFor(offSec, cntSec) {
		for c := int64(0); c < e.count; c += fs.cfg.ChunkSectors {
			pieces = append(pieces, piece{e.sector + c, min64(fs.cfg.ChunkSectors, e.count-c)})
		}
	}
	slug := fs.cfg.ReadAhead
	if slug < 1 {
		slug = 1
	}
	next, remaining, slugsOut := 0, len(pieces), 0
	var pump func()
	pump = func() {
		for slugsOut < 2 && next < len(pieces) {
			n := min(slug, len(pieces)-next)
			slugsOut++
			left := n
			onDone := func(*block.Request) {
				left--
				remaining--
				if remaining == 0 {
					fs.cache.insert(f, offSec, cntSec)
					cb()
					return
				}
				if left == 0 {
					slugsOut--
					pump()
				}
			}
			for _, p := range pieces[next : next+n] {
				fs.dom.Submit(block.Read, p.sector, p.count, true, stream, onDone)
			}
			next += n
		}
	}
	pump()
}

// readRecord is one observable effect of a read workload: a request
// entering the guest queue (op -1), or the callback of read number op.
type readRecord struct {
	at     sim.Time
	op     int
	sector int64
	count  int64
	stream block.StreamID
	sync   bool
}

// readWorkload builds a small filesystem whose files are interleaved into
// multi-extent layouts spanning several block groups, then issues a
// seeded, overlapping sequence of reads through read: random offsets and
// lengths (zero-length reads included), repeats that hit the page cache,
// and follow-up reads issued from inside a read's callback. It returns
// every guest-queue submission and callback in the order they happened.
func readWorkload(seed, chunk int64, readAhead int, read func(f *File, stream block.StreamID, off, length int64, cb func())) []readRecord {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New(1)
	hc := xen.DefaultHostConfig()
	hc.VMExtentSectors = 1 << 14
	h := xen.NewHost(eng, 0, 1, hc)
	cfg := DefaultConfig()
	cfg.ChunkSectors = chunk
	cfg.ReadAhead = readAhead
	cfg.GroupSectors = 48
	cfg.SpreadGroups = 3
	cfg.CacheBytes = 96 * block.SectorSize
	cfg.JournalRegionBytes = 1 << 20
	fs := NewFS(eng, h.Domain(0), cfg)

	var log []readRecord
	h.Domain(0).Queue().OnEnqueue(func(r *block.Request) {
		log = append(log, readRecord{at: eng.Now(), op: -1, sector: r.Sector, count: r.Count, stream: r.Stream, sync: r.Sync})
	})

	// Interleaved preallocation: each file's appends land between other
	// files' in the same small groups, and full groups push the tail into
	// whichever group is emptiest.
	files := make([]*File, 4)
	for i := range files {
		files[i] = fs.Create("f")
	}
	for round := 0; round < 6; round++ {
		for _, i := range rng.Perm(len(files)) {
			files[i].Preallocate(int64(1+rng.Intn(40)) * block.SectorSize)
		}
	}
	streams := []block.StreamID{fs.NewStream(), fs.NewStream(), fs.NewStream()}
	pick := func() (*File, int64, int64) {
		f := files[rng.Intn(len(files))]
		off := rng.Int63n(f.Size())
		length := int64(0)
		if rng.Intn(8) > 0 {
			length = 1 + rng.Int63n(f.Size()-off)
		}
		return f, off, length
	}

	var at sim.Duration
	for op := 0; op < 24; op++ {
		f, off, length := pick()
		stream := streams[rng.Intn(len(streams))]
		var nested func()
		if rng.Intn(4) == 0 {
			nf, noff, nlen := pick()
			nop := op + 1000 // nested reads log as 1000 + the outer read's number
			nested = func() {
				read(nf, stream, noff, nlen, func() { log = append(log, readRecord{at: eng.Now(), op: nop}) })
			}
		}
		at += sim.Duration(rng.Intn(3)) * sim.Millisecond
		eng.Schedule(at, func() {
			read(f, stream, off, length, func() {
				log = append(log, readRecord{at: eng.Now(), op: op})
				if nested != nil {
					nested()
				}
			})
		})
	}
	eng.Run()
	return log
}

// Property: Read submits the same guest requests, in the same order and at
// the same instants, and runs callbacks at the same instants as refRead.
func TestQuickReadMatchesReference(t *testing.T) {
	f := func(seed int64, chunk, readAhead uint8) bool {
		c, ra := int64(chunk%4)+1, int(readAhead%4)+1
		got := readWorkload(seed, c, ra, (*File).Read)
		want := readWorkload(seed, c, ra, refRead)
		if !slices.Equal(got, want) {
			t.Logf("seed %d chunk %d readahead %d: %d records, reference %d", seed, c, ra, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A warm, uncached 4 MB sequential read through the domain's ring, the
// Dom0 queue and the disk allocates nothing: the read op, its slug
// callbacks and every layer below are recycled.
func TestReadSteadyStateZeroAlloc(t *testing.T) {
	eng, fs, _ := testFS(t)
	f := fs.Create("seq")
	f.Preallocate(256 << 20)
	stream := fs.NewStream()
	const unit = 4 << 20
	var off int64
	done := func() {}
	cycle := func() {
		f.Read(stream, off, unit, done)
		eng.Run()
		off += unit
	}
	cycle()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Fatalf("warm uncached 4 MB read allocates %v objects, want 0", got)
	}
	if off > f.Size() {
		t.Fatalf("read %d bytes of a %d-byte file", off, f.Size())
	}
}
