package mapred

import (
	"fmt"

	"adaptmr/internal/block"
	"adaptmr/internal/guestio"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// mapTask executes one input split: it streams the split from the local
// HDFS block (sequential synchronous reads), runs the map function on each
// I/O unit, accumulates output in the io.sort.mb buffer, spills sorted runs
// to local disk when the buffer passes its threshold, and finally merges
// multiple spills into the single map output file reducers fetch.
type mapTask struct {
	job *Job
	tt  *taskTracker
	id  int

	input  *guestio.File
	stream block.StreamID

	readOff   int64 // bytes of split consumed
	buffered  int64 // map output bytes in the sort buffer
	spills    []*guestio.File
	outBytes  int64 // total map output produced
	output    *guestio.File
	completed bool
	started   sim.Time

	// unit is the size of the I/O unit in flight; the step loop's
	// callbacks are bound once so a unit allocates nothing.
	unit     int64
	stepFn   func() // m.step
	readFn   func() // m.unitRead
	mappedFn func() // m.unitMapped
}

func newMapTask(j *Job, tt *taskTracker, id int, input *guestio.File) *mapTask {
	m := &mapTask{job: j, tt: tt, id: id, input: input}
	m.stepFn, m.readFn, m.mappedFn = m.step, m.unitRead, m.unitMapped
	return m
}

// outputBytes returns the final size of the map output (valid once done).
func (m *mapTask) outputBytes() int64 { return m.outBytes }

// outputFile returns the fetchable map output file (valid once done).
func (m *mapTask) outputFile() *guestio.File { return m.output }

func (m *mapTask) run() {
	m.stream = m.tt.fs.NewStream()
	m.started = m.job.eng.Now()
	m.step()
}

// step advances the read→map→buffer→spill loop one I/O unit at a time.
func (m *mapTask) step() {
	remaining := m.input.Size() - m.readOff
	if remaining <= 0 {
		m.finalSpill()
		return
	}
	m.unit = m.job.cfg.IOUnitBytes
	if m.unit > remaining {
		m.unit = remaining
	}
	m.input.Read(m.stream, m.readOff, m.unit, m.readFn)
}

// unitRead runs the map function over the unit just read.
func (m *mapTask) unitRead() {
	m.readOff += m.unit
	mb := float64(m.unit) / (1 << 20)
	m.tt.fs.Domain().VCPU.Run(mb*m.job.cfg.MapCPUSecPerMB, m.mappedFn)
}

// unitMapped buffers the unit's map output, spilling past the threshold.
func (m *mapTask) unitMapped() {
	cfg := &m.job.cfg
	out := int64(float64(m.unit) * cfg.MapOutputRatio)
	m.buffered += out
	m.outBytes += out
	if float64(m.buffered) >= cfg.SpillThreshold*float64(cfg.SortBufferBytes) {
		m.spill(m.stepFn)
		return
	}
	m.step()
}

// spill sorts the buffered output (CPU) and writes it to a local spill
// file through the page cache, then continues with next.
func (m *mapTask) spill(next func()) {
	cfg := &m.job.cfg
	bytes := m.buffered
	m.buffered = 0
	if bytes <= 0 {
		next()
		return
	}
	f := m.tt.fs.Create(fmt.Sprintf("map%d-spill%d", m.id, len(m.spills)))
	m.spills = append(m.spills, f)
	mb := float64(bytes) / (1 << 20)
	m.tt.fs.Domain().VCPU.Run(mb*cfg.SortCPUSecPerMB, func() {
		f.Append(m.stream, bytes, next)
	})
}

// finalSpill flushes the buffer tail, then merges spills if needed.
func (m *mapTask) finalSpill() {
	m.spill(func() {
		switch len(m.spills) {
		case 0:
			// Zero map output (fully combined away): create an empty
			// output marker.
			m.output = m.tt.fs.Create(fmt.Sprintf("map%d-out", m.id))
			m.finish()
		case 1:
			m.output = m.spills[0]
			m.finish()
		default:
			m.merge()
		}
	})
}

// merge combines multiple spill files into the final map output: every
// spill is read back (sequential, possibly page-cache hits for recent
// spills), merge CPU is charged, and the merged run is written out. Spill
// counts above SortFactor would need multiple passes; with io.sort.mb=100MB
// and ≤2 GB splits that never happens here, so a single pass is modelled
// and guarded.
func (m *mapTask) merge() {
	cfg := &m.job.cfg
	if len(m.spills) > cfg.SortFactor {
		// Multi-pass merge: fold the oldest SortFactor spills into one
		// intermediate run, then recurse.
		m.mergeSome(m.spills[:cfg.SortFactor], func(intermediate *guestio.File) {
			m.spills = append([]*guestio.File{intermediate}, m.spills[cfg.SortFactor:]...)
			m.merge()
		})
		return
	}
	m.mergeSome(m.spills, func(out *guestio.File) {
		m.output = out
		m.finish()
	})
}

// mergeSome reads the given spills, charges merge CPU, writes the merged
// run, and hands it to done.
func (m *mapTask) mergeSome(spills []*guestio.File, done func(*guestio.File)) {
	cfg := &m.job.cfg
	var total int64
	for _, s := range spills {
		total += s.Size()
	}
	out := m.tt.fs.Create(fmt.Sprintf("map%d-merge", m.id))
	idx := 0
	var readNext func()
	readNext = func() {
		if idx == len(spills) {
			mb := float64(total) / (1 << 20)
			m.tt.fs.Domain().VCPU.Run(mb*cfg.SortCPUSecPerMB, func() {
				out.Append(m.stream, total, func() { done(out) })
			})
			return
		}
		s := spills[idx]
		idx++
		s.Read(m.stream, 0, s.Size(), readNext)
	}
	readNext()
}

func (m *mapTask) finish() {
	if m.completed {
		panic("mapred: map task finished twice")
	}
	m.completed = true
	if s := m.job.cl.Obs(); s.Trace != nil {
		// Map slots overlap on one VM thread, so tasks are async spans.
		s.Trace.AsyncSpan(s.HostPID(m.tt.hostID()), obs.VMTaskTID(m.tt.localVM()),
			"mapred", fmt.Sprintf("map%d", m.id), m.started, m.job.eng.Now(),
			obs.I("bytes_in", m.input.Size()),
			obs.I("bytes_out", m.outBytes),
			obs.I("spills", int64(len(m.spills))))
	}
	m.job.mapFinished(m)
}
