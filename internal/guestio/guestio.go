// Package guestio models the guest operating system's file I/O path on top
// of a xen.Domain's virtual disk: an extent-allocating filesystem (ext3-like
// block-group spreading), a page cache with dirty-page writeback and
// throttling, windowed sequential readahead, and fsync.
//
// This layer is what turns application byte streams into the block-request
// patterns the elevators actually see: synchronous chunked reads, bursts of
// asynchronous writeback, and sync barriers — the I/O mixes that make
// different phases of a MapReduce job favour different scheduler pairs.
package guestio

import (
	"fmt"

	"adaptmr/internal/block"
	"adaptmr/internal/sim"
	"adaptmr/internal/xen"
)

// Config carries the guest-OS I/O tunables.
type Config struct {
	// ChunkSectors is the request granularity of reads and writeback
	// submissions (512 = 256 KiB).
	ChunkSectors int64
	// ReadAhead is how many chunk reads a sequential reader keeps in
	// flight.
	ReadAhead int
	// GroupSectors is the filesystem block-group size; new files are
	// spread round-robin across groups like ext3's directory placement.
	GroupSectors int64
	// SpreadGroups bounds the placement round-robin to the first N groups:
	// a mostly-empty volume concentrates its files near the front instead
	// of scattering them across the whole disk.
	SpreadGroups int64
	// CacheBytes is page-cache capacity available for clean file data.
	CacheBytes int64
	// DirtyBackground starts background writeback.
	DirtyBackground int64
	// DirtyHard blocks writers until writeback catches up.
	DirtyHard int64
	// WritebackBatch is how many writeback requests stay in flight.
	WritebackBatch int
	// FlushExpire flushes dirty data older than this even below the
	// background threshold (pdflush periodic writeback).
	FlushExpire sim.Duration
	// MemCopyBps is the rate for page-cache hits (no disk involved).
	MemCopyBps float64

	// JournalRegionBytes reserves an ext3-style journal at the front of
	// the volume; journal commits seek there and back, which is a large
	// part of why concurrent writers thrash a shared disk.
	JournalRegionBytes int64
	// JournalEveryBytes issues one journal commit per this much flushed
	// data (jbd transaction batching).
	JournalEveryBytes int64
	// JournalWriteBytes is the size of one commit record write.
	JournalWriteBytes int64

	// MetadataEveryBytes issues one small metadata update (inode table /
	// block bitmap, written at the owning block group's head) per this
	// much flushed file data. Zero disables metadata traffic.
	MetadataEveryBytes int64
	// MetadataWriteBytes is the size of one metadata update.
	MetadataWriteBytes int64
}

// DefaultConfig models a 1 GB RHEL5 guest.
func DefaultConfig() Config {
	return Config{
		ChunkSectors:    256, // 128 KiB
		ReadAhead:       4,
		GroupSectors:    256 * 1024 * 2, // 256 MiB
		SpreadGroups:    16,             // keep placement within ~4 GiB
		CacheBytes:      400 << 20,
		DirtyBackground: 24 << 20,
		DirtyHard:       80 << 20,
		WritebackBatch:  16,
		FlushExpire:     1 * sim.Second,
		MemCopyBps:      2e9,

		JournalRegionBytes: 128 << 20,
		JournalEveryBytes:  4 << 20,
		JournalWriteBytes:  128 << 10,

		MetadataEveryBytes: 0, // disabled by default; see ablation benches
		MetadataWriteBytes: 16 << 10,
	}
}

// FS is the per-domain filesystem + page cache.
type FS struct {
	eng *sim.Engine
	dom *xen.Domain
	cfg Config

	numGroups int64
	nextGroup int64
	groupTip  []int64 // next free sector within each group (absolute)

	cache *pageCache

	// extScratch backs sectorsFor results; see its contract there.
	extScratch []extent
	// readFree recycles uncached reads' in-flight state (see readOp).
	readFree []*readOp

	nextStream   block.StreamID
	daemonStream block.StreamID

	journalStart   int64 // first journal sector
	journalSectors int64
	journalTip     int64 // next commit record position (absolute)
	journalStream  block.StreamID
}

// NewFS mounts a filesystem over the domain's whole virtual disk.
func NewFS(eng *sim.Engine, dom *xen.Domain, cfg Config) *FS {
	if cfg.ChunkSectors <= 0 || cfg.GroupSectors <= 0 {
		panic("guestio: invalid config")
	}
	journal := cfg.JournalRegionBytes / block.SectorSize
	if journal >= dom.ExtentSectors() {
		panic("guestio: journal larger than volume")
	}
	n := (dom.ExtentSectors() - journal) / cfg.GroupSectors
	if n == 0 {
		n = 1
	}
	fs := &FS{
		eng: eng, dom: dom, cfg: cfg, numGroups: n, nextStream: 1,
		journalStart: 0, journalSectors: journal, journalTip: 0,
	}
	fs.groupTip = make([]int64, n)
	for i := int64(0); i < n; i++ {
		fs.groupTip[i] = journal + i*cfg.GroupSectors
	}
	fs.cache = newPageCache(fs)
	fs.daemonStream = fs.NewStream()
	fs.journalStream = fs.NewStream()
	return fs
}

// commitJournal writes one commit record at the journal tip (sync: jbd
// waits for commit records). No-op when the journal is disabled.
func (fs *FS) commitJournal(onDone func()) {
	if fs.journalSectors == 0 || fs.cfg.JournalWriteBytes <= 0 {
		if onDone != nil {
			fs.eng.Schedule(0, onDone)
		}
		return
	}
	count := (fs.cfg.JournalWriteBytes + block.SectorSize - 1) / block.SectorSize
	if fs.journalTip+count > fs.journalStart+fs.journalSectors {
		fs.journalTip = fs.journalStart // wrap
	}
	sector := fs.journalTip
	fs.journalTip += count
	// kjournald writes commit records through the normal buffer path
	// (async at the elevator level); waiters block on the completion.
	var oc func(*block.Request)
	if onDone != nil {
		oc = func(*block.Request) { onDone() }
	}
	fs.dom.Submit(block.Write, sector, count, false, fs.journalStream, oc)
}

// DaemonStream is the process identity of long-lived system daemons
// (datanode) on this guest.
func (fs *FS) DaemonStream() block.StreamID { return fs.daemonStream }

// Domain returns the underlying guest.
func (fs *FS) Domain() *xen.Domain { return fs.dom }

// Config returns the filesystem configuration.
func (fs *FS) Config() Config { return fs.cfg }

// NewStream allocates a fresh process identity for elevator accounting.
func (fs *FS) NewStream() block.StreamID {
	s := fs.nextStream
	fs.nextStream++
	return s
}

// DirtyBytes returns the current amount of unwritten page-cache data.
func (fs *FS) DirtyBytes() int64 { return fs.cache.dirty }

// extent maps a contiguous file range to disk sectors.
type extent struct {
	fileOff int64 // sectors
	sector  int64
	count   int64
}

// File is an append-only regular file.
type File struct {
	fs      *FS
	label   string
	group   int64
	size    int64 // sectors
	extents []extent

	dirtyFrom int64 // first dirty sector offset, -1 when clean
	dirtyTo   int64
	dirtyAt   sim.Time

	resident []span // cached sector ranges, ordered and disjoint
}

type syncWaiter struct {
	pending int // outstanding sync writes
	cb      func()
}

// Create makes an empty file; label is for debugging only.
func (fs *FS) Create(label string) *File {
	f := &File{fs: fs, label: label, group: fs.nextGroup, dirtyFrom: -1}
	window := fs.numGroups
	if fs.cfg.SpreadGroups > 0 && fs.cfg.SpreadGroups < window {
		window = fs.cfg.SpreadGroups
	}
	fs.nextGroup = (fs.nextGroup + 1) % window
	return f
}

// Preallocate extends the file by bytes without dirtying the page cache;
// it models data that already exists on disk (e.g. pre-loaded HDFS input).
func (f *File) Preallocate(bytes int64) {
	sectors := (bytes + block.SectorSize - 1) / block.SectorSize
	f.allocate(sectors)
}

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size * block.SectorSize }

func (f *File) String() string { return fmt.Sprintf("file(%s, %d KiB)", f.label, f.Size()/1024) }

// allocate extends the file by count sectors, preferring contiguity with
// the previous extent, falling back to the file's home group and then any
// group with space.
func (f *File) allocate(count int64) {
	fs := f.fs
	groupEnd := func(g int64) int64 { return fs.journalStart + fs.journalSectors + (g+1)*fs.cfg.GroupSectors }
	for count > 0 {
		g := f.group
		// Continue the last extent's group while it has room.
		if len(f.extents) > 0 {
			last := f.extents[len(f.extents)-1]
			g = (last.sector + last.count - 1 - fs.journalStart - fs.journalSectors) / fs.cfg.GroupSectors
			if g < 0 {
				g = 0
			}
			if g >= fs.numGroups {
				g = fs.numGroups - 1
			}
		}
		tip := fs.groupTip[g]
		room := groupEnd(g) - tip
		if room <= 0 {
			g = f.pickGroup()
			tip = fs.groupTip[g]
			room = groupEnd(g) - tip
			if room <= 0 {
				panic("guestio: filesystem full")
			}
		}
		take := count
		if take > room {
			take = room
		}
		fs.groupTip[g] = tip + take
		// Coalesce with previous extent when physically contiguous.
		if n := len(f.extents); n > 0 && f.extents[n-1].sector+f.extents[n-1].count == tip &&
			f.extents[n-1].fileOff+f.extents[n-1].count == f.size {
			f.extents[n-1].count += take
		} else {
			f.extents = append(f.extents, extent{fileOff: f.size, sector: tip, count: take})
		}
		f.size += take
		count -= take
	}
}

// pickGroup finds the emptiest group (simple heuristic).
func (f *File) pickGroup() int64 {
	fs := f.fs
	base := fs.journalStart + fs.journalSectors
	best, bestFree := int64(0), int64(-1)
	for g := int64(0); g < fs.numGroups; g++ {
		free := base + (g+1)*fs.cfg.GroupSectors - fs.groupTip[g]
		if free > bestFree {
			best, bestFree = g, free
		}
	}
	return best
}

// sectorsFor maps a file range to disk extents. The returned slice is the
// FS-wide scratch buffer: it is valid only until the next sectorsFor call
// on any file of this FS, which every caller satisfies by consuming it
// before yielding control (submission paths complete asynchronously, so
// nothing re-enters the FS while the result is live).
func (f *File) sectorsFor(off, count int64) []extent {
	out := f.fs.extScratch[:0]
	for _, e := range f.extents {
		if off >= e.fileOff+e.count || off+count <= e.fileOff {
			continue
		}
		s := max64(off, e.fileOff)
		t := min64(off+count, e.fileOff+e.count)
		out = append(out, extent{fileOff: s, sector: e.sector + (s - e.fileOff), count: t - s})
	}
	f.fs.extScratch = out
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// writeMetadata issues one small async metadata update (inode table /
// block bitmap) at the head of the block group owning the given sector.
func (fs *FS) writeMetadata(near int64) {
	if fs.cfg.MetadataWriteBytes <= 0 {
		return
	}
	base := fs.journalStart + fs.journalSectors
	g := (near - base) / fs.cfg.GroupSectors
	if g < 0 {
		g = 0
	}
	if g >= fs.numGroups {
		g = fs.numGroups - 1
	}
	count := (fs.cfg.MetadataWriteBytes + block.SectorSize - 1) / block.SectorSize
	fs.dom.Submit(block.Write, base+g*fs.cfg.GroupSectors, count, false, fs.journalStream, nil)
}
