package guestio

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
	"adaptmr/internal/xen"
)

func testFS(t testing.TB) (*sim.Engine, *FS, *xen.Host) {
	t.Helper()
	eng := sim.New(1)
	hc := xen.DefaultHostConfig()
	hc.VMExtentSectors = 8 << 20 // 4 GiB virtual disk
	h := xen.NewHost(eng, 0, 1, hc)
	fs := NewFS(eng, h.Domain(0), DefaultConfig())
	return eng, fs, h
}

func TestCreateAndPreallocate(t *testing.T) {
	_, fs, _ := testFS(t)
	f := fs.Create("input")
	if f.Size() != 0 {
		t.Fatalf("new file size %d", f.Size())
	}
	f.Preallocate(1 << 20)
	if f.Size() != 1<<20 {
		t.Fatalf("size = %d", f.Size())
	}
	if fs.DirtyBytes() != 0 {
		t.Fatal("preallocate dirtied the cache")
	}
}

func TestAllocationIsContiguousPerFile(t *testing.T) {
	_, fs, _ := testFS(t)
	f := fs.Create("big")
	f.Preallocate(8 << 20) // 8 MB, well within one 256 MB group
	if len(f.extents) != 1 {
		t.Fatalf("extents = %d, want 1 contiguous", len(f.extents))
	}
}

func TestAllocationSpreadsAcrossGroups(t *testing.T) {
	_, fs, _ := testFS(t)
	a := fs.Create("a")
	b := fs.Create("b")
	a.Preallocate(1 << 20)
	b.Preallocate(1 << 20)
	if a.extents[0].sector == b.extents[0].sector {
		t.Fatal("two files allocated at the same sector")
	}
	ga := (a.extents[0].sector - fs.journalSectors) / fs.cfg.GroupSectors
	gb := (b.extents[0].sector - fs.journalSectors) / fs.cfg.GroupSectors
	if ga == gb {
		t.Fatal("consecutive files placed in the same block group")
	}
}

func TestAllocationAvoidsJournal(t *testing.T) {
	_, fs, _ := testFS(t)
	f := fs.Create("x")
	f.Preallocate(1 << 20)
	for _, e := range f.extents {
		if e.sector < fs.journalSectors {
			t.Fatalf("extent at %d inside journal region (%d)", e.sector, fs.journalSectors)
		}
	}
}

func TestReadHitsDiskAndCaches(t *testing.T) {
	eng, fs, h := testFS(t)
	f := fs.Create("data")
	f.Preallocate(4 << 20)
	stream := fs.NewStream()
	done := 0
	f.Read(stream, 0, 4<<20, func() { done++ })
	eng.Run()
	if done != 1 {
		t.Fatalf("read completions = %d", done)
	}
	coldReads := h.Disk().Stats().Requests
	if coldReads == 0 {
		t.Fatal("cold read produced no disk traffic")
	}
	// Second read of the same range: cache hit, no extra disk reads.
	f.Read(stream, 0, 4<<20, func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatal("cached read never completed")
	}
	if got := h.Disk().Stats().Requests; got != coldReads {
		t.Fatalf("cached read hit the disk: %d -> %d requests", coldReads, got)
	}
}

func TestReadPastEOFPanics(t *testing.T) {
	_, fs, _ := testFS(t)
	f := fs.Create("short")
	f.Preallocate(1 << 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic reading past EOF")
		}
	}()
	f.Read(fs.NewStream(), 0, 1<<20, func() {})
}

func TestAppendIsAsyncAndFlushes(t *testing.T) {
	eng, fs, h := testFS(t)
	f := fs.Create("out")
	accepted := false
	f.Append(fs.NewStream(), 4<<20, func() { accepted = true })
	eng.Step() // the accept callback is scheduled immediately
	for !accepted {
		if !eng.Step() {
			t.Fatal("append never accepted")
		}
	}
	if h.Disk().Stats().Bytes >= 4<<20 {
		t.Fatal("append waited for the disk (should be buffered)")
	}
	eng.Run() // writeback drains
	if fs.DirtyBytes() != 0 {
		t.Fatalf("dirty after drain: %d", fs.DirtyBytes())
	}
	if h.Disk().Stats().Bytes < 4<<20 {
		t.Fatalf("disk saw %d bytes, want at least the data", h.Disk().Stats().Bytes)
	}
}

func TestDirtyThrottlingBlocksWriters(t *testing.T) {
	eng, fs, _ := testFS(t)
	f := fs.Create("big")
	var acceptedAt []sim.Time
	total := fs.cfg.DirtyHard * 3
	var write func(left int64)
	write = func(left int64) {
		if left <= 0 {
			return
		}
		n := int64(4 << 20)
		if n > left {
			n = left
		}
		f.Append(1, n, func() {
			acceptedAt = append(acceptedAt, eng.Now())
			write(left - n)
		})
	}
	write(total)
	eng.Run()
	if len(acceptedAt) == 0 {
		t.Fatal("no writes accepted")
	}
	last := acceptedAt[len(acceptedAt)-1]
	if last == 0 {
		t.Fatal("all writes accepted instantly despite exceeding the dirty limit")
	}
	if fs.DirtyBytes() != 0 {
		t.Fatal("dirty not drained")
	}
}

func TestSyncDurability(t *testing.T) {
	eng, fs, h := testFS(t)
	f := fs.Create("wal")
	stream := fs.NewStream()
	synced := false
	f.Append(stream, 1<<20, func() {
		f.Sync(stream, func() { synced = true })
	})
	for !synced {
		if !eng.Step() {
			t.Fatal("sync never completed")
		}
	}
	// At fsync return, the file's data (and a journal commit) are on disk.
	if h.Disk().Stats().Bytes < 1<<20 {
		t.Fatalf("disk saw %d bytes at fsync return", h.Disk().Stats().Bytes)
	}
	if f.dirtyFrom >= 0 {
		t.Fatal("file still dirty after fsync")
	}
}

func TestSyncCleanFileIsImmediate(t *testing.T) {
	eng, fs, _ := testFS(t)
	f := fs.Create("clean")
	f.Preallocate(1 << 20)
	synced := false
	f.Sync(fs.NewStream(), func() { synced = true })
	eng.Run()
	if !synced {
		t.Fatal("sync of clean file never returned")
	}
}

func TestJournalCommitsHappen(t *testing.T) {
	eng, fs, h := testFS(t)
	var journalWrites int
	h.Dom0Queue().OnComplete(func(r *block.Request) {
		// The journal occupies the low sectors of the VM extent.
		if r.Op == block.Write && r.Sector < fs.journalSectors {
			journalWrites++
		}
	})
	f := fs.Create("data")
	f.Append(fs.NewStream(), 16<<20, nil2)
	eng.Run()
	if journalWrites == 0 {
		t.Fatal("16 MB of writeback produced no journal commits")
	}
}

// nil2 is a no-op callback.
func nil2() {}

func TestCacheEviction(t *testing.T) {
	eng, fs, h := testFS(t)
	small := DefaultConfig()
	small.CacheBytes = 2 << 20
	fs2 := NewFS(eng, h.Domain(0), small)
	a := fs2.Create("a")
	b := fs2.Create("b")
	a.Preallocate(2 << 20)
	b.Preallocate(2 << 20)
	st := fs2.NewStream()
	a.Read(st, 0, 2<<20, func() {})
	eng.Run()
	b.Read(st, 0, 2<<20, func() {}) // evicts a
	eng.Run()
	before := h.Disk().Stats().Requests
	a.Read(st, 0, 2<<20, func() {}) // must hit the disk again
	eng.Run()
	if h.Disk().Stats().Requests == before {
		t.Fatal("evicted file served from cache")
	}
	_ = fs
}

// refAddResident is the sort-then-merge form of addResident: append the
// range, sort by offset, merge the whole list. It returns the new list and
// the number of newly resident bytes.
func refAddResident(resident []span, off, count int64) ([]span, int64) {
	var overlap int64
	for _, s := range resident {
		lo := max64(s.off, off)
		hi := min64(s.off+s.count, off+count)
		if hi > lo {
			overlap += hi - lo
		}
	}
	resident = append(resident, span{off, count})
	sort.Slice(resident, func(i, j int) bool { return resident[i].off < resident[j].off })
	merged := resident[:0]
	for _, s := range resident {
		if n := len(merged); n > 0 && merged[n-1].off+merged[n-1].count >= s.off {
			end := max64(merged[n-1].off+merged[n-1].count, s.off+s.count)
			merged[n-1].count = end - merged[n-1].off
		} else {
			merged = append(merged, s)
		}
	}
	return merged, (count - overlap) * block.SectorSize
}

// Property: addResident returns the reference's byte count and leaves the
// reference's span list, zero-length ranges included.
func TestQuickAddResidentMatchesReference(t *testing.T) {
	f := func(ranges [][2]uint16) bool {
		file := &File{dirtyFrom: -1}
		var ref []span
		for _, r := range ranges {
			off, cnt := int64(r[0]%512), int64(r[1]%64)
			got := file.addResident(off, cnt)
			var want int64
			ref, want = refAddResident(ref, off, cnt)
			if got != want || !slices.Equal(file.resident, ref) {
				t.Logf("add [%d,+%d): got %d %v, reference %d %v", off, cnt, got, file.resident, want, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickResidentSpans(t *testing.T) {
	f := func(ranges []uint16) bool {
		file := &File{dirtyFrom: -1}
		type rg struct{ off, cnt int64 }
		var added []rg
		var total int64
		for _, r := range ranges {
			off := int64(r % 512)
			cnt := int64(r%64) + 1
			got := file.addResident(off, cnt)
			if got < 0 || got > cnt*block.SectorSize {
				return false
			}
			added = append(added, rg{off, cnt})
			total += got
			// Invariants: sorted, disjoint, non-empty spans.
			for i, s := range file.resident {
				if s.count <= 0 {
					return false
				}
				if i > 0 {
					prev := file.resident[i-1]
					if prev.off+prev.count > s.off {
						return false
					}
				}
			}
		}
		// Total accounted bytes equal the union size.
		var union int64
		for _, s := range file.resident {
			union += s.count
		}
		return union*block.SectorSize == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
