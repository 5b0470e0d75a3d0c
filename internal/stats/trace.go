package stats

import (
	"adaptmr/internal/block"
	"adaptmr/internal/sim"
)

// ThroughputSampler turns a request queue's completion stream into a
// windowed MB/s time series — the instrument behind the paper's Fig 3
// CDFs of VMM- and VM-level I/O throughput.
//
// Attach subscribes the sampler to the queue's multi-subscriber completion
// hook, so it coexists with tracers and controllers listening on the same
// queue; windows are closed lazily as completions arrive, and Series
// flushes the trailing window.
type ThroughputSampler struct {
	eng    *sim.Engine
	window sim.Duration

	start      sim.Time
	winStart   sim.Time
	winBytes   int64
	series     []float64
	totalBytes int64
}

// NewThroughputSampler creates a sampler with the given window size.
func NewThroughputSampler(eng *sim.Engine, window sim.Duration) *ThroughputSampler {
	if window <= 0 {
		panic("stats: window must be positive")
	}
	now := eng.Now()
	return &ThroughputSampler{eng: eng, window: window, start: now, winStart: now}
}

// Attach subscribes the sampler to the queue's completion hook. Other
// subscribers (tracers, controllers) coexist without chaining.
func (t *ThroughputSampler) Attach(q *block.Queue) {
	q.OnComplete(func(r *block.Request) { t.Record(r.Bytes()) })
}

// Record accounts bytes completed at the current simulation time.
func (t *ThroughputSampler) Record(bytes int64) {
	now := t.eng.Now()
	for now.Sub(t.winStart) >= t.window {
		t.closeWindow()
	}
	t.winBytes += bytes
	t.totalBytes += bytes
}

func (t *ThroughputSampler) closeWindow() {
	mbps := float64(t.winBytes) / 1e6 / t.window.Seconds()
	t.series = append(t.series, mbps)
	t.winBytes = 0
	t.winStart = t.winStart.Add(t.window)
}

// Series returns the completed windows as MB/s samples, including the
// (partial) current window if it has any data. It works on a copy that
// first closes every window ended by now, so only the time elapsed within
// the current window normalises the trailing sample.
func (t *ThroughputSampler) Series() []float64 {
	c := *t
	c.series = append([]float64(nil), t.series...)
	c.Record(0)
	if c.winBytes > 0 {
		elapsed := c.eng.Now().Sub(c.winStart)
		if elapsed > 0 {
			c.series = append(c.series, float64(c.winBytes)/1e6/elapsed.Seconds())
		}
	}
	return c.series
}

// TotalBytes returns all bytes recorded.
func (t *ThroughputSampler) TotalBytes() int64 { return t.totalBytes }

// MeanMBps returns the overall average throughput since creation.
func (t *ThroughputSampler) MeanMBps() float64 {
	el := t.eng.Now().Sub(t.start)
	if el <= 0 {
		return 0
	}
	return float64(t.totalBytes) / 1e6 / el.Seconds()
}
