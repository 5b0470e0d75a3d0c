package mapred

import (
	"fmt"

	"adaptmr/internal/block"
	"adaptmr/internal/guestio"
	"adaptmr/internal/hdfs"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// reduceTask executes one reducer: it fetches its partition of every map
// output as outputs become available (ParallelCopies concurrent HTTP
// copies: a disk read on the serving VM, a network transfer, and an
// in-memory landing that spills to the reducer's local disk when the
// shuffle buffer fills), then merge-sorts the collected segments and
// streams them through the reduce function into replicated HDFS output.
type reduceTask struct {
	job *Job
	tt  *taskTracker
	id  int

	stream  block.StreamID
	running bool

	ready    []*mapTask
	inflight int
	fetched  int

	memBytes      int64
	diskSpills    []*guestio.File
	pendingSpills int

	totalIn     int64
	shuffleOver bool

	started    sim.Time
	shuffledAt sim.Time

	// fetchFree recycles the per-fetch state of the shuffle copies.
	fetchFree   []*fetchOp
	fetchDoneFn func() // r.fetchDone

	// The reduce phase's unit loop keeps its state here and its
	// callbacks are bound once, so a unit allocates nothing.
	writer    *hdfs.Writer
	memLeft   int64  // in-memory input not yet reduced
	spillIdx  int    // disk spill being streamed
	spillOff  int64  // bytes of diskSpills[spillIdx] consumed
	unit      int64  // size of the unit in flight
	stepFn    func() // r.reduceStep
	unitFn    func() // r.reduceUnit
	reducedFn func() // r.unitReduced
}

func newReduceTask(j *Job, tt *taskTracker, id int) *reduceTask {
	// Every map output is queued once, so ready never outgrows this
	// backing array while pump consumes it from the front.
	r := &reduceTask{job: j, tt: tt, id: id, ready: make([]*mapTask, 0, len(j.maps))}
	r.fetchDoneFn = r.fetchDone
	r.stepFn, r.unitFn, r.reducedFn = r.reduceStep, r.reduceUnit, r.unitReduced
	return r
}

func (r *reduceTask) run() {
	r.running = true
	r.stream = r.tt.fs.NewStream()
	r.started = r.job.eng.Now()
	r.pump()
}

// mapOutputAvailable enqueues a finished map's output for fetching.
func (r *reduceTask) mapOutputAvailable(m *mapTask) {
	r.ready = append(r.ready, m)
	if r.running {
		r.pump()
	}
}

func (r *reduceTask) pump() {
	for r.inflight < r.job.cfg.ParallelCopies && len(r.ready) > 0 {
		m := r.ready[0]
		r.ready = r.ready[1:]
		r.inflight++
		r.fetch(m)
	}
	r.checkShuffleDone()
}

// fetch copies this reducer's partition of one map output.
func (r *reduceTask) fetch(m *mapTask) {
	part := m.outputBytes() / int64(len(r.job.reduces))
	if part <= 0 {
		r.job.eng.Schedule(0, r.fetchDoneFn)
		return
	}
	off := int64(r.id) * part
	if off+part > m.outputFile().Size() {
		off = m.outputFile().Size() - part
	}
	o := r.getFetchOp()
	o.m, o.off, o.part = m, off, part
	// Serving-side disk read by the TT's HTTP server, after the fixed
	// connection/servlet overhead.
	r.job.eng.Schedule(r.job.cfg.FetchOverhead, o.serveFn)
}

// fetchOp is one shuffle copy in flight: the serving-side read, the
// network transfer and the landing on the reducer. Ops are recycled
// per reducer and their callbacks are bound once.
type fetchOp struct {
	r         *reduceTask
	m         *mapTask
	off, part int64
	serveFn   func() // o.serve
	servedFn  func() // o.served
	landFn    func() // o.land
	landedFn  func() // o.landed
}

func (r *reduceTask) getFetchOp() *fetchOp {
	if n := len(r.fetchFree); n > 0 {
		o := r.fetchFree[n-1]
		r.fetchFree[n-1] = nil
		r.fetchFree = r.fetchFree[:n-1]
		return o
	}
	o := &fetchOp{r: r}
	o.serveFn, o.servedFn, o.landFn, o.landedFn = o.serve, o.served, o.land, o.landed
	return o
}

// serve reads the partition on the serving VM.
func (o *fetchOp) serve() {
	o.m.outputFile().Read(o.m.tt.serveStream, o.off, o.part, o.servedFn)
}

// served ships the partition to the reducer, or lands it directly when
// the serving VM is the reducer's own.
func (o *fetchOp) served() {
	serving, r := o.m.tt, o.r
	if serving.vm == r.tt.vm {
		// Same VM: loopback, no network or bridge traffic.
		o.land()
		return
	}
	r.job.cl.Net.Send(serving.hostID(), r.tt.hostID(), float64(o.part), o.landFn)
}

// land runs the copier-side CPU work (stream decode, in-memory merge
// bookkeeping) for the fetched partition.
func (o *fetchOp) land() {
	mb := float64(o.part) / (1 << 20)
	o.r.tt.fs.Domain().VCPU.Run(mb*o.r.job.cfg.CopyCPUSecPerMB, o.landedFn)
}

// landed books the segment into the shuffle buffer, spilling to the
// reducer's local disk when over budget. The op is recycled first, so
// the fetch this one's completion starts can reuse it.
func (o *fetchOp) landed() {
	r, bytes := o.r, o.part
	o.m = nil
	r.fetchFree = append(r.fetchFree, o)
	r.memBytes += bytes
	r.totalIn += bytes
	if r.memBytes > r.job.cfg.ShuffleBufferBytes {
		r.spillShuffle()
	}
	r.fetchDone()
}

func (r *reduceTask) fetchDone() {
	r.inflight--
	r.fetched++
	r.pump()
}

// spillShuffle merges the in-memory segments onto disk (sort CPU + buffered
// write).
func (r *reduceTask) spillShuffle() {
	cfg := &r.job.cfg
	bytes := r.memBytes
	r.memBytes = 0
	f := r.tt.fs.Create(fmt.Sprintf("reduce%d-spill%d", r.id, len(r.diskSpills)))
	r.diskSpills = append(r.diskSpills, f)
	r.pendingSpills++
	mb := float64(bytes) / (1 << 20)
	r.tt.fs.Domain().VCPU.Run(mb*cfg.SortCPUSecPerMB, func() {
		f.Append(r.stream, bytes, func() {
			r.pendingSpills--
			r.checkShuffleDone()
		})
	})
}

func (r *reduceTask) checkShuffleDone() {
	if r.shuffleOver || !r.running {
		return
	}
	if r.fetched < len(r.job.maps) || r.inflight > 0 || r.pendingSpills > 0 {
		return
	}
	r.shuffleOver = true
	r.shuffledAt = r.job.eng.Now()
	if s := r.job.cl.Obs(); s.Trace != nil {
		s.Trace.AsyncSpan(s.HostPID(r.tt.hostID()), obs.VMTaskTID(r.tt.localVM()),
			"mapred", fmt.Sprintf("shuffle%d", r.id), r.started, r.shuffledAt,
			obs.I("bytes_in", r.totalIn),
			obs.I("segments", int64(len(r.diskSpills))))
	}
	r.job.reducerShuffled(r)
	r.sortPhase()
}

// sortPhase performs intermediate merge passes while the segment count
// exceeds io.sort.factor, then enters the streaming reduce.
func (r *reduceTask) sortPhase() {
	cfg := &r.job.cfg
	segments := len(r.diskSpills)
	if r.memBytes > 0 {
		segments++
	}
	if segments > cfg.SortFactor && len(r.diskSpills) >= 2 {
		n := cfg.SortFactor
		if n > len(r.diskSpills) {
			n = len(r.diskSpills)
		}
		r.mergeSpills(r.diskSpills[:n], func(out *guestio.File) {
			r.diskSpills = append([]*guestio.File{out}, r.diskSpills[n:]...)
			r.sortPhase()
		})
		return
	}
	r.reducePhase()
}

// mergeSpills reads the given spill files, charges merge CPU, and writes
// one combined run.
func (r *reduceTask) mergeSpills(spills []*guestio.File, done func(*guestio.File)) {
	cfg := &r.job.cfg
	var total int64
	for _, s := range spills {
		total += s.Size()
	}
	out := r.tt.fs.Create(fmt.Sprintf("reduce%d-intermerge", r.id))
	idx := 0
	var next func()
	next = func() {
		if idx == len(spills) {
			mb := float64(total) / (1 << 20)
			r.tt.fs.Domain().VCPU.Run(mb*cfg.SortCPUSecPerMB, func() {
				out.Append(r.stream, total, func() { done(out) })
			})
			return
		}
		s := spills[idx]
		idx++
		s.Read(r.stream, 0, s.Size(), next)
	}
	next()
}

// reducePhase streams the merged input through the reduce function into
// HDFS: in-memory segments first (no disk read), then each disk spill in
// I/O units, charging merge+reduce CPU per unit and writing
// ReduceOutputRatio × input to the replicated output file.
func (r *reduceTask) reducePhase() {
	r.writer = r.job.cl.DFS.NewWriter(r.tt.vm, r.stream)
	r.memLeft = r.memBytes
	r.reduceStep()
}

// reduceStep starts the next unit, or commits the output once all input
// is consumed.
func (r *reduceTask) reduceStep() {
	cfg := &r.job.cfg
	if r.memLeft > 0 {
		r.unit = cfg.IOUnitBytes
		if r.unit > r.memLeft {
			r.unit = r.memLeft
		}
		r.memLeft -= r.unit
		r.reduceUnit()
		return
	}
	for r.spillIdx < len(r.diskSpills) && r.spillOff >= r.diskSpills[r.spillIdx].Size() {
		r.spillIdx++
		r.spillOff = 0
	}
	if r.spillIdx < len(r.diskSpills) {
		s := r.diskSpills[r.spillIdx]
		r.unit = cfg.IOUnitBytes
		if r.unit > s.Size()-r.spillOff {
			r.unit = s.Size() - r.spillOff
		}
		off := r.spillOff
		r.spillOff += r.unit
		s.Read(r.stream, off, r.unit, r.unitFn)
		return
	}
	// All input consumed: commit the output.
	r.writer.Close(func() {
		if s := r.job.cl.Obs(); s.Trace != nil {
			s.Trace.AsyncSpan(s.HostPID(r.tt.hostID()), obs.VMTaskTID(r.tt.localVM()),
				"mapred", fmt.Sprintf("reduce%d", r.id), r.shuffledAt, r.job.eng.Now(),
				obs.I("bytes_in", r.totalIn))
		}
		r.job.reducerFinished(r)
	})
}

// reduceUnit charges the unit's merge and reduce CPU.
func (r *reduceTask) reduceUnit() {
	cfg := &r.job.cfg
	mb := float64(r.unit) / (1 << 20)
	r.tt.fs.Domain().VCPU.Run(mb*(cfg.SortCPUSecPerMB+cfg.ReduceCPUSecPerMB), r.reducedFn)
}

// unitReduced writes the unit's reduce output, then takes the next unit.
func (r *reduceTask) unitReduced() {
	if out := int64(float64(r.unit) * r.job.cfg.ReduceOutputRatio); out > 0 {
		r.writer.Write(out, r.stepFn)
		return
	}
	r.reduceStep()
}
