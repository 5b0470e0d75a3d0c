package analyze

import (
	"sort"

	"adaptmr/internal/block"
	"adaptmr/internal/cluster"
	"adaptmr/internal/disk"
	"adaptmr/internal/sim"
)

// Sampler records fixed-interval timeseries live during a run, driven by
// the block.Queue lifecycle hooks (OnEnqueue / OnMerge / OnDispatch /
// OnComplete) and disk.Disk.OnService — no trace post-processing, no
// polling events. Attach it before the job starts, then hand it to Build.
//
// A sampler from NewSampler records the history Finalize buckets. The
// zero Sampler keeps only the running counters that Live and Level read,
// which is all an online controller or a live stream needs: it records
// no history, and AttachDisk is a no-op on it.
//
// A merged child is counted as resolved at merge time (it leaves the
// elevator by absorption, not by dispatch).
type Sampler struct {
	levels    map[string]*levelSeries // per level ("vm", "dom0")
	history   bool                    // record the logs and spans Finalize reads
	busy      [][]ival                // disk service spans, per attached disk
	completed int64
}

// levelSeries holds one level's raw delta logs (a history sampler's only)
// plus the running counters Live and Level read between simulation events
// without replaying the logs. Hooks hold the *levelSeries resolved once at
// attach time, so the per-event path does no map lookups.
type levelSeries struct {
	depth deltaLog // waiting in elevator
	outst deltaLog // issued but not completed
	bytes valLog   // completed bytes

	curDepth int32
	curOutst int32
	cumBytes int64

	// Controller feature counters, all cumulative (windowed by
	// subtraction in LevelSample.Window): completed read/write volume,
	// completed request counts by class, and dispatch seek distance.
	cumReadBytes  int64
	cumWriteBytes int64
	completed     int64
	readDone      int64
	syncDone      int64
	dispatched    int64
	seekSectors   int64
}

type tsDelta struct {
	t sim.Time
	d int32
}

type tsval struct {
	t sim.Time
	v int64
}

// tsChunk sizes the sampler's append-only chunk lists: recording during the
// run never copies old entries (a growing contiguous slice memmoves its
// whole history every doubling, inside the measured simulation window).
const tsChunk = 4096

// deltaLog is a chunked append-only list of tsDelta.
type deltaLog struct {
	chunks [][]tsDelta
}

func (l *deltaLog) add(t sim.Time, d int32) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == tsChunk {
		l.chunks = append(l.chunks, make([]tsDelta, 0, tsChunk))
		k++
	}
	l.chunks[k] = append(l.chunks[k], tsDelta{t, d})
}

// flatten copies the log into one slice (finalize-time only).
func (l *deltaLog) flatten() []tsDelta {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	out := make([]tsDelta, 0, n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// valLog is a chunked append-only list of tsval.
type valLog struct {
	chunks [][]tsval
}

func (l *valLog) add(t sim.Time, v int64) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == tsChunk {
		l.chunks = append(l.chunks, make([]tsval, 0, tsChunk))
		k++
	}
	l.chunks[k] = append(l.chunks[k], tsval{t, v})
}

func (l *valLog) each(fn func(tsval)) {
	for _, c := range l.chunks {
		for _, v := range c {
			fn(v)
		}
	}
}

// NewSampler returns an empty sampler that records history for Finalize.
func NewSampler() *Sampler {
	return &Sampler{levels: map[string]*levelSeries{}, history: true}
}

// level resolves (creating on first use) the series for one level label.
func (s *Sampler) level(name string) *levelSeries {
	ls := s.levels[name]
	if ls == nil {
		if s.levels == nil {
			s.levels = map[string]*levelSeries{}
		}
		ls = &levelSeries{}
		s.levels[name] = ls
	}
	return ls
}

// AttachQueue subscribes to one queue's lifecycle hooks under the given
// level label ("vm" queues aggregate together, as do "dom0").
func (s *Sampler) AttachQueue(q *block.Queue, level string) {
	ls := s.level(level)
	hist := s.history
	q.OnEnqueue(func(r *block.Request) {
		if hist {
			ls.depth.add(r.Issued, +1)
			ls.outst.add(r.Issued, +1)
		}
		ls.curDepth++
		ls.curOutst++
	})
	q.OnMerge(func(parent, child *block.Request) {
		if hist {
			ls.depth.add(child.Issued, -1)
			ls.outst.add(child.Issued, -1)
		}
		ls.curDepth--
		ls.curOutst--
	})
	// lastEnd tracks this queue's previous dispatch end sector so the seek
	// distance is per-queue (per spindle path), folded into the level sum;
	// -1 means no dispatch yet (the first dispatch contributes no seek).
	lastEnd := int64(-1)
	q.OnDispatch(func(r *block.Request) {
		if hist {
			ls.depth.add(r.Dispatched, -1)
		}
		ls.curDepth--
		if lastEnd >= 0 {
			d := r.Sector - lastEnd
			if d < 0 {
				d = -d
			}
			ls.seekSectors += d
		}
		lastEnd = r.End()
		ls.dispatched++
	})
	q.OnComplete(func(r *block.Request) {
		if hist {
			ls.outst.add(r.Completed, -1)
			ls.bytes.add(r.Completed, r.Bytes())
		}
		ls.curOutst--
		ls.cumBytes += r.Bytes()
		if r.Op == block.Read {
			ls.cumReadBytes += r.Bytes()
			ls.readDone++
		} else {
			ls.cumWriteBytes += r.Bytes()
		}
		// Count the submitter's sync flag, not IsSyncFull: the elevators
		// treat every read as sync (Linux semantics), so IsSyncFull would
		// make a read window's sync share tautological. r.Sync separates
		// blocking traffic (reads, fsync) from async writeback/readahead,
		// which is the signal the online controller classifies on.
		if r.Sync {
			ls.syncDone++
		}
		ls.completed++
		s.completed++
	})
}

// AttachDisk chains onto the disk's OnService observer and records busy
// spans, which only Finalize reads: on a sampler without history it
// attaches nothing.
func (s *Sampler) AttachDisk(d *disk.Disk) {
	if !s.history {
		return
	}
	overhead := d.Config().Overhead
	prev := d.OnService
	s.busy = append(s.busy, nil)
	di := len(s.busy) - 1
	d.OnService = func(r *block.Request, pos, xfer sim.Duration) {
		if prev != nil {
			prev(r, pos, xfer)
		}
		start := r.Dispatched
		s.busy[di] = append(s.busy[di], ival{int64(start), int64(start.Add(pos + xfer + overhead))})
	}
}

// LiveSample is an instantaneous view of the sampler's running counters:
// elevator depth and outstanding requests per level, cumulative completed
// volume (total and split by op), completed request counts by class, and
// cumulative dispatch seek distance. Reading one is O(levels) — cheap
// enough to take between simulation events for live streaming. Every
// volume/count field is cumulative since attach; rates belong to
// LevelSample.Window, which differences two samples of one level.
//
// A sample taken before any attached queue saw traffic — or from a
// sampler with no queues attached at all — is fully defined: empty
// (never nil) maps, zero counters, no NaN anywhere.
type LiveSample struct {
	SimTimeS    float64            `json:"sim_time_s"`
	Depth       map[string]int32   `json:"depth"`
	Outstanding map[string]int32   `json:"outstanding"`
	CumMB       map[string]float64 `json:"cum_mb"`
	Requests    int64              `json:"requests"`

	// CumReadMB/CumWriteMB split CumMB by op (completed volume).
	CumReadMB  map[string]float64 `json:"cum_read_mb,omitempty"`
	CumWriteMB map[string]float64 `json:"cum_write_mb,omitempty"`
	// Completed counts finished requests per level; ReadDone and SyncDone
	// are the read and sync-class subsets.
	Completed map[string]int64 `json:"completed,omitempty"`
	ReadDone  map[string]int64 `json:"read_done,omitempty"`
	SyncDone  map[string]int64 `json:"sync_done,omitempty"`
	// Dispatched counts elevator dispatches; SeekSectors is the summed
	// absolute sector distance between consecutive dispatches per queue,
	// folded per level — the controller's seekiness signal.
	Dispatched  map[string]int64 `json:"dispatched,omitempty"`
	SeekSectors map[string]int64 `json:"seek_sectors,omitempty"`
}

// Live returns the current running counters, stamped with the given
// simulation time. It must be called from the simulation goroutine (the
// sampler's hooks are not synchronised).
func (s *Sampler) Live(now sim.Time) LiveSample {
	n := len(s.levels)
	ls := LiveSample{
		SimTimeS:    now.Seconds(),
		Depth:       make(map[string]int32, n),
		Outstanding: make(map[string]int32, n),
		CumMB:       make(map[string]float64, n),
		Requests:    s.completed,
		CumReadMB:   make(map[string]float64, n),
		CumWriteMB:  make(map[string]float64, n),
		Completed:   make(map[string]int64, n),
		ReadDone:    make(map[string]int64, n),
		SyncDone:    make(map[string]int64, n),
		Dispatched:  make(map[string]int64, n),
		SeekSectors: make(map[string]int64, n),
	}
	for level, v := range s.levels {
		ls.Depth[level] = v.curDepth
		ls.Outstanding[level] = v.curOutst
		ls.CumMB[level] = round6(float64(v.cumBytes) / mb)
		ls.CumReadMB[level] = round6(float64(v.cumReadBytes) / mb)
		ls.CumWriteMB[level] = round6(float64(v.cumWriteBytes) / mb)
		ls.Completed[level] = v.completed
		ls.ReadDone[level] = v.readDone
		ls.SyncDone[level] = v.syncDone
		ls.Dispatched[level] = v.dispatched
		ls.SeekSectors[level] = v.seekSectors
	}
	return ls
}

// LevelSample is one level's running counters at an instant, in
// LiveSample's units: the part of a sample the online controller windows
// over, read without building LiveSample's maps.
type LevelSample struct {
	SimTimeS    float64
	Depth       int32
	CumReadMB   float64
	CumWriteMB  float64
	Completed   int64
	SyncDone    int64
	Dispatched  int64
	SeekSectors int64
}

// Level returns one level's running counters, stamped with the given
// simulation time; a level no queue was attached under reads zero. Like
// Live, it must be called from the simulation goroutine.
func (s *Sampler) Level(now sim.Time, level string) LevelSample {
	ls := LevelSample{SimTimeS: now.Seconds()}
	if v := s.levels[level]; v != nil {
		ls.Depth = v.curDepth
		ls.CumReadMB = round6(float64(v.cumReadBytes) / mb)
		ls.CumWriteMB = round6(float64(v.cumWriteBytes) / mb)
		ls.Completed = v.completed
		ls.SyncDone = v.syncDone
		ls.Dispatched = v.dispatched
		ls.SeekSectors = v.seekSectors
	}
	return ls
}

// WindowStats is the change between two live samples at one level,
// expressed as the classification features the online controller consumes.
// Every field is well-defined on degenerate windows: a zero or negative
// duration, an idle window, or identical samples produce zeros — never
// NaN, Inf or stale carry-over from an earlier window.
type WindowStats struct {
	DurS     float64 `json:"dur_s"`
	Requests int64   `json:"requests"` // completions in the window

	ReadMB    float64 `json:"read_mb"`
	WriteMB   float64 `json:"write_mb"`
	ReadMBps  float64 `json:"read_mbps"`
	WriteMBps float64 `json:"write_mbps"`

	// ReadShare is read bytes over total bytes completed in the window;
	// SyncShare is sync-class completions over all completions. Both are 0
	// when the window completed nothing.
	ReadShare float64 `json:"read_share"`
	SyncShare float64 `json:"sync_share"`

	// Depth is the elevator depth at the window's end boundary.
	Depth int32 `json:"depth"`
	// SeekPerDispatch is the mean absolute sector distance between
	// consecutive dispatches in the window (0 when nothing dispatched).
	SeekPerDispatch float64 `json:"seek_per_dispatch"`
}

// Window returns the level's stats over the (prev, s] interval. prev may
// be the zero LevelSample (treated as an empty start-of-run sample).
func (s LevelSample) Window(prev LevelSample) WindowStats {
	w := WindowStats{
		DurS:     s.SimTimeS - prev.SimTimeS,
		Requests: s.Completed - prev.Completed,
		ReadMB:   round6(s.CumReadMB - prev.CumReadMB),
		WriteMB:  round6(s.CumWriteMB - prev.CumWriteMB),
		Depth:    s.Depth,
	}
	if w.DurS < 0 {
		w.DurS = 0
	}
	if w.DurS > 0 {
		w.ReadMBps = round6(w.ReadMB / w.DurS)
		w.WriteMBps = round6(w.WriteMB / w.DurS)
	}
	if total := w.ReadMB + w.WriteMB; total > 0 {
		w.ReadShare = round6(w.ReadMB / total)
	}
	if w.Requests > 0 {
		w.SyncShare = round6(float64(s.SyncDone-prev.SyncDone) / float64(w.Requests))
	}
	if disp := s.Dispatched - prev.Dispatched; disp > 0 {
		w.SeekPerDispatch = round6(float64(s.SeekSectors-prev.SeekSectors) / float64(disp))
	}
	return w
}

// AttachCluster wires the sampler to every Dom0 queue, guest queue and
// physical disk of the cluster.
func (s *Sampler) AttachCluster(cl *cluster.Cluster) {
	for _, h := range cl.Hosts {
		s.AttachQueue(h.Dom0Queue(), "dom0")
		s.AttachDisk(h.Disk())
		for _, d := range h.Domains() {
			s.AttachQueue(d.Queue(), "vm")
		}
	}
}

// Timeseries is the finalized fixed-interval view. Sample i covers the
// bucket [StartS + i·IntervalS, StartS + (i+1)·IntervalS): depth and
// outstanding are sampled at the bucket's end boundary, throughput and
// disk busy are averaged over the bucket.
type Timeseries struct {
	StartS    float64 `json:"start_s"`
	IntervalS float64 `json:"interval_s"`
	Samples   int     `json:"samples"`

	// Depth is the number of requests waiting in elevators per level at
	// each bucket boundary.
	Depth map[string][]int32 `json:"depth"`
	// Outstanding is issued-but-incomplete requests per level.
	Outstanding map[string][]int32 `json:"outstanding"`
	// ThroughputMBps is completed volume per level averaged per bucket.
	ThroughputMBps map[string][]float64 `json:"throughput_mbps"`
	// DiskBusyFrac is the mean busy fraction across attached disks.
	DiskBusyFrac []float64 `json:"disk_busy_frac"`
}

// Finalize buckets the recorded raw deltas into fixed-interval samples
// of the given width spanning [start, end]. The trailing bucket is always
// emitted and, like every bucket, its throughput is averaged over the
// full interval, so each level's series sums back to its completed
// volume (MB = 2^20 bytes).
func (s *Sampler) Finalize(start, end sim.Time, interval sim.Duration) Timeseries {
	if !s.history {
		panic("analyze: Finalize on a sampler without history (build it with NewSampler)")
	}
	span := end.Sub(start)
	if span <= 0 || interval <= 0 {
		return Timeseries{Depth: map[string][]int32{}, Outstanding: map[string][]int32{}, ThroughputMBps: map[string][]float64{}}
	}
	n := int(span/interval) + 1

	ts := Timeseries{
		StartS:         start.Seconds(),
		IntervalS:      interval.Seconds(),
		Samples:        n,
		Depth:          map[string][]int32{},
		Outstanding:    map[string][]int32{},
		ThroughputMBps: map[string][]float64{},
		DiskBusyFrac:   make([]float64, n),
	}
	for level, ser := range s.levels {
		ts.Depth[level] = boundarySamples(ser.depth.flatten(), start, interval, n)
		ts.Outstanding[level] = boundarySamples(ser.outst.flatten(), start, interval, n)
		tput := make([]float64, n)
		ser.bytes.each(func(v tsval) {
			b := bucketOf(v.t, start, interval, n)
			tput[b] += float64(v.v)
		})
		for i := range tput {
			tput[i] = round6(tput[i] / mb / interval.Seconds())
		}
		ts.ThroughputMBps[level] = tput
	}
	if len(s.busy) > 0 {
		w := window{start, start.Add(sim.Duration(n) * interval)}
		for _, spans := range s.busy {
			// Merge per disk so concurrent service on different hosts is
			// not coalesced away, and clip to the sampled span so partial
			// overlaps contribute proportionally.
			for _, iv := range merge(clip(append([]ival(nil), spans...), w)) {
				lo, hi := bucketOf(sim.Time(iv.s), start, interval, n), bucketOf(sim.Time(iv.e-1), start, interval, n)
				for b := lo; b <= hi; b++ {
					bs := int64(start.Add(sim.Duration(b) * interval))
					be := bs + int64(interval)
					ts.DiskBusyFrac[b] += float64(minI(iv.e, be)-maxI(iv.s, bs)) / float64(interval)
				}
			}
		}
		for i := range ts.DiskBusyFrac {
			ts.DiskBusyFrac[i] = round6(ts.DiskBusyFrac[i] / float64(len(s.busy)))
		}
	}
	return ts
}

// seriesInterval picks the smallest 100ms·2^k bucket width that keeps a
// span within maxPoints samples: the width Build finalizes a report's
// timeseries at.
func seriesInterval(span sim.Duration, maxPoints int) sim.Duration {
	interval := 100 * sim.Millisecond
	for int(span/interval)+1 > maxPoints {
		interval *= 2
	}
	return interval
}

// boundarySamples integrates ±1 deltas and samples the running value at
// the end boundary of each bucket. It owns (and sorts) the passed slice.
func boundarySamples(ds []tsDelta, start sim.Time, interval sim.Duration, n int) []int32 {
	sort.SliceStable(ds, func(a, b int) bool { return ds[a].t < ds[b].t })
	out := make([]int32, n)
	var cur int32
	di := 0
	for i := 0; i < n; i++ {
		boundary := start.Add(sim.Duration(i+1) * interval)
		for di < len(ds) && ds[di].t <= boundary {
			cur += ds[di].d
			di++
		}
		out[i] = cur
	}
	return out
}

// bucketOf maps a timestamp to its bucket index, clamped to [0, n).
func bucketOf(t sim.Time, start sim.Time, interval sim.Duration, n int) int {
	if t <= start {
		return 0
	}
	b := int(t.Sub(start) / interval)
	if b >= n {
		b = n - 1
	}
	return b
}
