package obs

import (
	"adaptmr/internal/block"
	"adaptmr/internal/disk"
	"adaptmr/internal/sim"
)

// LatencyEdgesMs is the default latency histogram layout: exponential
// buckets from 50 µs to ~26 s, wide enough for both a merged-sequential
// read and a starved write behind an elevator switch.
func LatencyEdgesMs() []float64 { return ExpEdges(0.05, 2, 20) }

// SeekEdges is the default seek-distance histogram layout in sectors
// (1024 sectors = 512 KiB) up to full-stroke distances on a 1 TB disk.
func SeekEdges() []float64 { return ExpEdges(1024, 4, 12) }

// InstrumentQueue subscribes tracing and metrics to a block queue's
// lifecycle hooks. level names the metric family ("dom0" or "vm"); pid/tid
// place the queue's trace events. Request lifecycles are emitted as async
// spans (they overlap on one track); elevator switches as complete spans.
func (s Sink) InstrumentQueue(q *block.Queue, pid, tid int64, level string) {
	if !s.Enabled() {
		return
	}
	tr := s.Trace
	m := s.Metrics
	var (
		reqs  = m.Counter("io." + level + ".requests")
		bytes = m.Counter("io." + level + ".bytes")
		lat   *Histogram
		// Stall accumulates across switches and runs, so it folds as a
		// sum when per-evaluation snapshots are absorbed.
		swStall   = m.GaugeWith("switch.stall_ms", MergeSum)
		swBacklog = m.Counter("switch.backlog")
		// peakDepth is the high-water mark of this queue's waiting
		// requests; across queues sharing the level (every VM elevator)
		// the gauge keeps the per-queue maximum.
		peakDepth = m.GaugeWith("io."+level+".peak_depth", MergeMax)
	)
	if m != nil {
		lat = m.Histogram("io."+level+".latency_ms", LatencyEdgesMs())
	}
	cat := "io." + level
	if m != nil {
		// Waiting-request depth of this queue, driven by the enqueue /
		// merge / dispatch lifecycle hooks (merged children leave the
		// queue through their parent, not through dispatch).
		var depth int64
		q.OnEnqueue(func(*block.Request) {
			depth++
			if float64(depth) > peakDepth.Value() {
				peakDepth.Set(float64(depth))
			}
		})
		q.OnDispatch(func(*block.Request) { depth-- })
		q.OnMerge(func(parent, child *block.Request) { depth-- })
	}
	// Queue-level decision provenance: merges and switch drains. The
	// recorder also holds the level's merge and switch counters
	// (sched.<level>.merge.*, sched.<level>.switch.*).
	rec := NewDecisionRecorder(s, pid, tid, level)
	q.OnMerge(func(parent, child *block.Request) {
		// FrontMerge moves the parent's first sector onto the child's, so
		// equal sectors at hook time identify a front merge (a back merge
		// can never leave them equal — it would need a zero-length child).
		kind := DecMergeBack
		if parent.Sector == child.Sector {
			kind = DecMergeFront
		}
		rec.Record(child.Issued, kind)
		if tr != nil {
			tr.Instant(pid, tid, cat, "merge", child.Issued,
				S("kind", mergeKindName(kind)),
				I("parent_sector", parent.Sector),
				I("child_sector", child.Sector),
				I("sectors", child.Count),
				I("j", child.Journey))
		}
	})
	q.OnComplete(func(r *block.Request) {
		reqs.Inc()
		bytes.Add(r.Bytes())
		lat.Observe(r.Completed.Sub(r.Issued).Millis())
		if tr != nil {
			tr.AsyncSpan(pid, tid, cat, r.Op.String(), r.Issued, r.Completed,
				I("sector", r.Sector),
				I("sectors", r.Count),
				I("stream", int64(r.Stream)),
				F("wait_ms", r.Dispatched.Sub(r.Issued).Millis()),
				I("j", r.Journey))
		}
	})
	q.OnSwitched(func(info block.SwitchInfo) {
		swStall.Add(info.Stall.Millis())
		swBacklog.Add(int64(info.Backlog))
		rec.Record(info.Start, DecSwitchBegin)
		rec.Record(info.Done, DecSwitchEnd)
		if tr != nil {
			tr.Span(pid, tid, "switch", info.From+"→"+info.To,
				info.Start, info.Done,
				F("stall_ms", info.Stall.Millis()),
				I("backlog", int64(info.Backlog)))
		}
	})
}

func mergeKindName(k DecisionKind) string {
	if k == DecMergeFront {
		return "front"
	}
	return "back"
}

// InstrumentDisk observes every serviced request on the physical disk:
// seek-distance histogram plus one complete span per service period (the
// disk services one request at a time, so spans never overlap).
func (s Sink) InstrumentDisk(d *disk.Disk, pid, tid int64) {
	if !s.Enabled() {
		return
	}
	tr := s.Trace
	var seekHist *Histogram
	if s.Metrics != nil {
		seekHist = s.Metrics.Histogram("disk.seek_sectors", SeekEdges())
	}
	overhead := d.Config().Overhead
	prev := d.OnService
	d.OnService = func(r *block.Request, pos, xfer sim.Duration) {
		if prev != nil {
			prev(r, pos, xfer)
		}
		// OnService fires before the head moves, so Head() is the
		// pre-service position.
		dist := r.Sector - d.Head()
		if dist < 0 {
			dist = -dist
		}
		seekHist.Observe(float64(dist))
		if tr != nil {
			// The queue dispatches synchronously into Service, so
			// r.Dispatched is the service start time.
			end := r.Dispatched.Add(pos + xfer + overhead)
			tr.Span(pid, tid, "disk", r.Op.String(), r.Dispatched, end,
				I("sector", r.Sector),
				I("sectors", r.Count),
				I("stream", int64(r.Stream)),
				F("position_ms", pos.Millis()),
				F("transfer_ms", xfer.Millis()),
				I("j", r.Journey))
		}
	}
}

type engineObserver struct{ events *Counter }

func (o engineObserver) EventFired(sim.Time) { o.events.Inc() }

// InstrumentEngine installs a metrics-counting observer on the simulation
// engine ("sim.events"). It is a no-op without a metrics registry.
func (s Sink) InstrumentEngine(eng *sim.Engine) {
	if s.Metrics == nil {
		return
	}
	eng.SetObserver(engineObserver{events: s.Metrics.Counter("sim.events")})
}
