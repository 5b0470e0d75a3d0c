package guestio

import (
	"sort"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

// Read fetches bytes [off, off+length) of the file as the given process and
// invokes cb when the data is in memory. Sequential chunked requests are
// issued with the configured readahead window. Page-cache-resident files are
// served at memory speed with no disk traffic.
func (f *File) Read(stream block.StreamID, off, length int64, cb func()) {
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

	o := fs.getReadOp()
	o.f, o.stream, o.offSec, o.cntSec, o.cb = f, stream, offSec, cntSec, cb
	// The extents live in the FS-wide scratch buffer, which the next
	// sectorsFor call reuses, so the op keeps its own copy to walk.
	o.exts = append(o.exts[:0], f.sectorsFor(offSec, cntSec)...)
	for _, e := range o.exts {
		o.unsent += int((e.count + fs.cfg.ChunkSectors - 1) / fs.cfg.ChunkSectors)
	}
	o.remaining = o.unsent
	o.pump()
}

// readOp is one uncached Read in flight. It walks the read's extents in
// chunk-sized pieces and submits them as readahead slugs: window-sized
// groups (the plugged block layer pushes a whole window at once),
// double-buffered, so at most two slugs are in flight. Slug submission
// keeps each process's arrivals contiguous, which is why even a FIFO
// elevator sees decent per-stream runs. Ops are recycled through the FS's
// freelist, so a warm read allocates nothing.
type readOp struct {
	f      *File
	stream block.StreamID
	offSec int64
	cntSec int64
	cb     func()

	exts   []extent // the read's extents, copied out of extScratch
	ext    int      // cursor: extent of the next piece
	extOff int64    // cursor: sectors of exts[ext] already submitted

	unsent    int // pieces not yet submitted
	remaining int // pieces not yet completed
	slugs     [2]readSlug
}

// readSlug is one of an op's two slug slots: the countdown of its pieces
// still in flight (0 when the slot is free) and their shared completion
// hook, bound once.
type readSlug struct {
	op   *readOp
	left int
	fn   func(*block.Request) // s.done
}

func (fs *FS) getReadOp() *readOp {
	if n := len(fs.readFree); n > 0 {
		o := fs.readFree[n-1]
		fs.readFree[n-1] = nil
		fs.readFree = fs.readFree[:n-1]
		return o
	}
	o := &readOp{}
	for i := range o.slugs {
		s := &o.slugs[i]
		s.op = o
		s.fn = s.done
	}
	return o
}

// pump submits the next slugs into whichever slots are free.
func (o *readOp) pump() {
	fs := o.f.fs
	slug := fs.cfg.ReadAhead
	if slug < 1 {
		slug = 1
	}
	for o.unsent > 0 {
		s := &o.slugs[0]
		if s.left > 0 {
			s = &o.slugs[1]
		}
		if s.left > 0 {
			return // two slugs in flight
		}
		n := min(slug, o.unsent)
		o.unsent -= n
		s.left = n
		for i := 0; i < n; i++ {
			e := o.exts[o.ext]
			count := min64(fs.cfg.ChunkSectors, e.count-o.extOff)
			sector := e.sector + o.extOff
			if o.extOff += count; o.extOff == e.count {
				o.ext++
				o.extOff = 0
			}
			fs.dom.Submit(block.Read, sector, count, true, o.stream, s.fn)
		}
	}
}

// done retires one piece of the slot's slug. When the read's last piece
// lands the op goes back to the freelist before the data is cached and
// the caller's callback runs, so a Read issued from that callback can
// reuse it.
func (s *readSlug) done(*block.Request) {
	o := s.op
	s.left--
	o.remaining--
	if o.remaining == 0 {
		f, offSec, cntSec, cb := o.f, o.offSec, o.cntSec, o.cb
		o.f, o.cb, o.ext = nil, nil, 0
		f.fs.readFree = append(f.fs.readFree, o)
		f.fs.cache.insert(f, offSec, cntSec)
		cb()
		return
	}
	if s.left == 0 {
		o.pump()
	}
}

// ---------------------------------------------------------------------------
// Writes and page cache
// ---------------------------------------------------------------------------

// Append adds length bytes to the file through the page cache as the given
// process. cb runs when the write() call would return — immediately unless
// dirty throttling is in force. Durability requires Sync.
func (f *File) Append(stream block.StreamID, length int64, cb func()) {
	if length <= 0 {
		f.fs.eng.Schedule(0, cb)
		return
	}
	sectors := (length + block.SectorSize - 1) / block.SectorSize
	start := f.size
	f.allocate(sectors)
	f.markDirty(start, sectors)
	_ = stream
	f.fs.cache.wrote(f, start, sectors, cb)
}

// Sync flushes the file's dirty pages as synchronous writes and calls cb
// once they are durable (fsync).
func (f *File) Sync(stream block.StreamID, cb func()) {
	fs := f.fs
	if f.dirtyFrom < 0 {
		fs.eng.Schedule(0, cb)
		return
	}
	from, to := f.dirtyFrom, f.dirtyTo
	f.clearDirty()
	fs.cache.dirty -= (to - from) * block.SectorSize
	fs.cache.unblockWriters()
	// fsync forces a journal commit after the data lands (ext3 ordered
	// mode: data first, then the commit record).
	w := &syncWaiter{cb: func() { fs.commitJournal(cb) }}
	onDone := func(*block.Request) {
		w.pending--
		if w.pending == 0 {
			w.cb()
		}
	}
	for _, e := range f.sectorsFor(from, to-from) {
		for c := int64(0); c < e.count; c += fs.cfg.ChunkSectors {
			n := min64(fs.cfg.ChunkSectors, e.count-c)
			w.pending++
			fs.dom.Submit(block.Write, e.sector+c, n, true, stream, onDone)
		}
	}
	if w.pending == 0 {
		fs.eng.Schedule(0, w.cb)
	}
}

func (f *File) markDirty(start, count int64) {
	if f.dirtyFrom < 0 {
		f.dirtyFrom, f.dirtyTo = start, start+count
		f.dirtyAt = f.fs.eng.Now()
		f.fs.cache.addDirtyFile(f)
		return
	}
	if start < f.dirtyFrom {
		f.dirtyFrom = start
	}
	if start+count > f.dirtyTo {
		f.dirtyTo = start + count
	}
}

func (f *File) clearDirty() { f.dirtyFrom, f.dirtyTo = -1, -1 }

// pageCache tracks dirty data (for writeback and throttling) and clean
// residency (LRU by file) for one domain.
type pageCache struct {
	fs *FS

	dirty       int64 // bytes
	dirtyFiles  []*File
	inFlight    int
	flushTimer  *sim.Event
	flushFn     func() // pc.flushExpired, bound once
	sinceCommit int64  // flushed bytes since the last journal commit
	sinceMeta   int64  // flushed bytes since the last metadata update

	blocked []blockedWrite

	// wbFree recycles writeback completion ops so steady-state flushing
	// allocates nothing: each op carries its bound callback, created once.
	wbFree []*wbOp

	residentBytes int64
	lru           []*File
	residentSet   map[*File]int64 // accounted resident bytes per file
}

// wbOp is one in-flight writeback chunk's completion state.
type wbOp struct {
	pc    *pageCache
	bytes int64
	fn    func(*block.Request) // o.done, bound once at construction
}

func (pc *pageCache) getWbOp(bytes int64) *wbOp {
	if n := len(pc.wbFree); n > 0 {
		o := pc.wbFree[n-1]
		pc.wbFree[n-1] = nil
		pc.wbFree = pc.wbFree[:n-1]
		o.bytes = bytes
		return o
	}
	o := &wbOp{pc: pc, bytes: bytes}
	o.fn = o.done
	return o
}

// done accounts one finished writeback chunk. The op is recycled before
// kickWriteback runs so a synchronous follow-up flush can reuse it.
func (o *wbOp) done(*block.Request) {
	pc, bytes := o.pc, o.bytes
	pc.wbFree = append(pc.wbFree, o)
	pc.inFlight--
	pc.dirty -= bytes
	if pc.dirty < 0 {
		pc.dirty = 0
	}
	pc.unblockWriters()
	pc.kickWriteback()
}

type blockedWrite struct {
	bytes int64
	cb    func()
}

func newPageCache(fs *FS) *pageCache {
	pc := &pageCache{fs: fs, residentSet: make(map[*File]int64)}
	pc.flushFn = pc.flushExpired
	return pc
}

// wrote accounts freshly dirtied data, applies throttling, and kicks
// writeback.
func (pc *pageCache) wrote(f *File, start, sectors int64, cb func()) {
	bytes := sectors * block.SectorSize
	pc.dirty += bytes
	pc.insert(f, start, sectors) // freshly written pages are resident
	if pc.dirty > pc.fs.cfg.DirtyHard {
		pc.blocked = append(pc.blocked, blockedWrite{bytes: bytes, cb: cb})
	} else {
		pc.fs.eng.Schedule(0, cb)
	}
	pc.kickWriteback()
}

func (pc *pageCache) addDirtyFile(f *File) {
	pc.dirtyFiles = append(pc.dirtyFiles, f)
	pc.armFlushTimer()
}

// pruneDirty drops files whose dirty range was already cleared (e.g. by an
// explicit Sync) from the head of the flush list.
func (pc *pageCache) pruneDirty() {
	for len(pc.dirtyFiles) > 0 && pc.dirtyFiles[0].dirtyFrom < 0 {
		pc.dirtyFiles = pc.dirtyFiles[1:]
	}
}

func (pc *pageCache) armFlushTimer() {
	pc.pruneDirty()
	if pc.flushTimer != nil || len(pc.dirtyFiles) == 0 {
		return
	}
	pc.flushTimer = pc.fs.eng.Schedule(pc.fs.cfg.FlushExpire, pc.flushFn)
}

// flushExpired is the periodic flush: write back expired data and re-arm.
func (pc *pageCache) flushExpired() {
	pc.flushTimer = nil
	pc.kickWriteback()
	pc.armFlushTimer()
}

// kickWriteback starts background flush work when above the background
// threshold, when writers are blocked, or when dirty data has expired.
func (pc *pageCache) kickWriteback() {
	now := pc.fs.eng.Now()
	for pc.inFlight < pc.fs.cfg.WritebackBatch {
		pc.pruneDirty()
		if pc.dirty <= 0 || len(pc.dirtyFiles) == 0 {
			return
		}
		needed := pc.dirty > pc.fs.cfg.DirtyBackground || len(pc.blocked) > 0
		if !needed {
			// Only expired files flush below the threshold.
			f := pc.dirtyFiles[0]
			if now.Sub(f.dirtyAt) < pc.fs.cfg.FlushExpire {
				return
			}
		}
		if !pc.flushOne() {
			return
		}
	}
}

// flushOne submits one chunk of the oldest dirty file as asynchronous
// writeback. Returns false when there was nothing to flush.
func (pc *pageCache) flushOne() bool {
	fs := pc.fs
	for len(pc.dirtyFiles) > 0 {
		f := pc.dirtyFiles[0]
		if f.dirtyFrom < 0 {
			pc.dirtyFiles = pc.dirtyFiles[1:]
			continue
		}
		count := min64(fs.cfg.ChunkSectors, f.dirtyTo-f.dirtyFrom)
		exts := f.sectorsFor(f.dirtyFrom, count)
		if len(exts) == 0 {
			f.clearDirty()
			pc.dirtyFiles = pc.dirtyFiles[1:]
			continue
		}
		e := exts[0]
		f.dirtyFrom += e.count
		if f.dirtyFrom >= f.dirtyTo {
			f.clearDirty()
			pc.dirtyFiles = pc.dirtyFiles[1:]
		}
		pc.inFlight++
		bytes := e.count * block.SectorSize
		// Periodic jbd transaction commits interleave with data
		// writeback, seeking to the journal region and back.
		pc.sinceCommit += bytes
		if fs.cfg.JournalEveryBytes > 0 && pc.sinceCommit >= fs.cfg.JournalEveryBytes {
			pc.sinceCommit = 0
			fs.commitJournal(nil)
		}
		pc.sinceMeta += bytes
		if fs.cfg.MetadataEveryBytes > 0 && pc.sinceMeta >= fs.cfg.MetadataEveryBytes {
			pc.sinceMeta = 0
			fs.writeMetadata(e.sector)
		}
		// Writeback runs in the flusher thread's context: stream 0.
		fs.dom.Submit(block.Write, e.sector, e.count, false, 0, pc.getWbOp(bytes).fn)
		return true
	}
	return false
}

// unblockWriters releases throttled writers once dirty drops below the
// hard limit.
func (pc *pageCache) unblockWriters() {
	for len(pc.blocked) > 0 && pc.dirty <= pc.fs.cfg.DirtyHard {
		w := pc.blocked[0]
		pc.blocked = pc.blocked[1:]
		pc.fs.eng.Schedule(0, w.cb)
	}
}

// ---------------------------------------------------------------------------
// Clean-page residency (read caching), LRU by file
// ---------------------------------------------------------------------------

// covers reports whether the sector range [off, off+count) of the file is
// fully cached.
func (pc *pageCache) covers(f *File, off, count int64) bool {
	if _, ok := pc.residentSet[f]; !ok {
		return false
	}
	pos := off
	end := off + count
	for _, s := range f.resident {
		if s.off > pos {
			return false
		}
		if s.off+s.count > pos {
			pos = s.off + s.count
			if pos >= end {
				return true
			}
		}
	}
	return pos >= end
}

func (pc *pageCache) touch(f *File) {
	if _, ok := pc.residentSet[f]; !ok {
		return
	}
	for i, g := range pc.lru {
		if g == f {
			copy(pc.lru[i:], pc.lru[i+1:])
			pc.lru[len(pc.lru)-1] = f
			return
		}
	}
}

// insert marks the sector range [off, off+count) of the file resident and
// evicts least-recently-used files over capacity.
func (pc *pageCache) insert(f *File, off, count int64) {
	added := f.addResident(off, count)
	if _, ok := pc.residentSet[f]; ok {
		pc.residentSet[f] += added
		pc.touch(f)
	} else {
		pc.residentSet[f] = added
		pc.lru = append(pc.lru, f)
	}
	pc.residentBytes += added
	for pc.residentBytes > pc.fs.cfg.CacheBytes && len(pc.lru) > 1 {
		victim := pc.lru[0]
		if victim == f {
			break
		}
		pc.lru = pc.lru[1:]
		pc.residentBytes -= pc.residentSet[victim]
		delete(pc.residentSet, victim)
		victim.resident = nil
	}
}

// span is a resident range of a file, in sectors.
type span struct {
	off, count int64
}

// addResident merges the range into the file's resident set and returns
// the number of newly resident bytes. The set is ordered and neither
// overlaps nor touches, so only the spans around the range's sorted
// position can merge with it.
func (f *File) addResident(off, count int64) int64 {
	rs := f.resident
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].off > off })
	if lo > 0 && rs[lo-1].off+rs[lo-1].count >= off {
		lo--
	}
	start, end := off, off+count
	var overlap int64
	hi := lo
	for ; hi < len(rs) && rs[hi].off <= end; hi++ {
		s := rs[hi]
		if o := min64(s.off+s.count, off+count) - max64(s.off, off); o > 0 {
			overlap += o
		}
		start = min64(start, s.off)
		end = max64(end, s.off+s.count)
	}
	if lo == hi {
		rs = append(rs, span{})
		copy(rs[lo+1:], rs[lo:])
	} else {
		rs = append(rs[:lo+1], rs[hi:]...)
	}
	rs[lo] = span{start, end - start}
	f.resident = rs
	return (count - overlap) * block.SectorSize
}
