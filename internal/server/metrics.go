package server

import (
	"sync"

	"adaptmr/internal/obs"
	"adaptmr/internal/obs/perfstat"
)

// Instrument names the server publishes: the /metrics contract the smoke
// test scrapes.
const (
	mReqRun         = "server.requests.run"
	mReqTune        = "server.requests.tune"
	mReqBruteforce  = "server.requests.bruteforce"
	mReqAutotune    = "server.requests.autotune"
	mStreamRequests = "server.requests.stream"
	mRespOK         = "server.responses.ok"
	mRespError      = "server.responses.error"
	mRejected       = "server.queue.rejected_total"
	mCoalesced      = "server.coalesced_total"
	mTimeouts       = "server.timeouts_total"
	mEvaluations    = "runner.evaluations_total"

	mQueueDepth    = "server.queue.depth"
	mQueueCapacity = "server.queue.capacity"
	mWorkersBusy   = "server.workers.busy"
	mWorkersTotal  = "server.workers.total"
	mUptime        = "server.uptime_s"
	mStreamsActive = "server.streams.active"
	mStreamDropped = "server.streams.dropped_frames"

	// perf.last.* gauges carry the most recent streamed evaluation's
	// engine self-telemetry (internal/obs/perfstat).
	mPerfWallS          = "perf.last.wall_s"
	mPerfEventsPerSec   = "perf.last.events_per_sec"
	mPerfAllocsPerEvent = "perf.last.allocs_per_event"
	mPerfBytesPerEvent  = "perf.last.bytes_per_event"

	mRequestSeconds = "server.request_seconds"
)

// requestSecondsEdges spans 1 ms … ~65 s exponentially — simulation
// requests range from milliseconds (tiny runs) to tens of seconds (full
// tuning searches).
var requestSecondsEdges = obs.ExpEdges(0.001, 2, 17)

// lockedRegistry makes an obs.Registry safe for the server's concurrent
// handlers. The obs package keeps its instruments unsynchronised on
// purpose (the simulation is single-goroutine per cluster and pays no
// locking cost); the server is the multi-goroutine holder, so the locks
// live here.
type lockedRegistry struct {
	mu  sync.Mutex
	reg *obs.Registry
}

func newLockedRegistry() *lockedRegistry {
	return &lockedRegistry{reg: obs.NewRegistry()}
}

func (l *lockedRegistry) addCounter(name string, v int64) {
	l.mu.Lock()
	l.reg.Counter(name).Add(v)
	l.mu.Unlock()
}

func (l *lockedRegistry) counterValue(name string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reg.Counter(name).Value()
}

func (l *lockedRegistry) setGauge(name string, v float64) {
	l.mu.Lock()
	l.reg.Gauge(name).Set(v)
	l.mu.Unlock()
}

func (l *lockedRegistry) observe(name string, edges []float64, v float64) {
	l.mu.Lock()
	l.reg.Histogram(name, edges).Observe(v)
	l.mu.Unlock()
}

// snapshot returns a point-in-time copy, safe to encode outside the lock.
func (l *lockedRegistry) snapshot() *obs.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reg.Snapshot()
}

// publishPerf exposes one evaluation's engine self-telemetry as the
// perf.last.* gauges (latest wins — the values are a freshness signal,
// not an aggregate).
func (s *Server) publishPerf(p *perfstat.Stat) {
	if p == nil {
		return
	}
	s.met.setGauge(mPerfWallS, p.WallSeconds)
	s.met.setGauge(mPerfEventsPerSec, p.EventsPerSec)
	s.met.setGauge(mPerfAllocsPerEvent, p.AllocsPerEvent)
	s.met.setGauge(mPerfBytesPerEvent, p.BytesPerEvent)
}
