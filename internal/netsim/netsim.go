// Package netsim is a fluid-flow network model: flows between physical
// nodes share per-node NIC uplink/downlink capacity under global max-min
// fairness, recomputed whenever a flow starts or finishes. Traffic between
// VMs on the same physical node crosses the software bridge instead of the
// NIC, at a higher capacity.
//
// This level of detail is enough for the paper's effects: shuffle
// all-to-all traffic contends on 1 GbE NICs (Fig 7d's scale trend) without
// modelling packets.
package netsim

import (
	"math"

	"adaptmr/internal/sim"
)

// Config sets link capacities in bytes/second.
type Config struct {
	// NICBps is per-node NIC capacity each direction (1 GbE ≈ 117 MiB/s
	// effective after protocol overhead).
	NICBps float64
	// BridgeBps is intra-node VM-to-VM capacity through the Xen bridge.
	BridgeBps float64
}

// DefaultConfig models the paper's 1 Gb/s Ethernet.
func DefaultConfig() Config {
	return Config{NICBps: 117e6, BridgeBps: 400e6}
}

// Flow is one in-progress transfer.
//
// A handle is dead once its flow completes: the Network recycles the Flow
// after OnFlowDone has observed it and before the flow's done callback
// runs, so a later Send may hand the same pointer out again for another
// transfer. Read a finished flow inside OnFlowDone, and drop any handle
// Send returned by the time done runs.
type Flow struct {
	src, dst  int
	bytes     float64 // total transfer size
	remaining float64 // bytes
	rate      float64 // bytes/sec, recomputed on membership changes
	start     sim.Time
	done      func()

	// links are the flow's capacity constraints as link indices: NIC
	// uplink then downlink, or the bridge alone (nlinks 1).
	links  [2]int
	nlinks int
	frozen bool // rate fixed by the current water-filling pass
}

// Rate returns the flow's current allocation in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Src returns the source physical node.
func (f *Flow) Src() int { return f.src }

// Dst returns the destination physical node.
func (f *Flow) Dst() int { return f.dst }

// Bytes returns the total transfer size.
func (f *Flow) Bytes() float64 { return f.bytes }

// Start returns when the transfer was issued.
func (f *Flow) Start() sim.Time { return f.start }

// Stats aggregates network activity.
type Stats struct {
	Flows       int64
	Bytes       float64
	BridgeFlows int64
}

// Network simulates the cluster fabric.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nodes int

	flows      []*Flow // insertion order, for deterministic accounting
	lastUpdate sim.Time
	next       *sim.Event
	complete   func() // completeDue, bound once so re-arming does not allocate

	// Water-filling scratch reused by every recompute. capLeft, members
	// and unfrozen are indexed by link; members holds indices into flows,
	// and only links in order have non-empty member lists.
	capLeft  []float64
	members  [][]int32
	unfrozen []int
	order    []int // links in first-use order

	finished []*Flow // completeDue's scratch, cleared after each use
	free     []*Flow // finished flows Send reuses

	stats Stats

	// OnFlowDone, if set, observes every flow as it finishes (tracing
	// hook; netsim itself stays observability-agnostic).
	OnFlowDone func(f *Flow)
}

// New creates a network joining the given number of physical nodes.
func New(eng *sim.Engine, nodes int, cfg Config) *Network {
	if nodes <= 0 || cfg.NICBps <= 0 || cfg.BridgeBps <= 0 {
		panic("netsim: invalid config")
	}
	links := nodes * linkKinds
	n := &Network{
		eng: eng, cfg: cfg, nodes: nodes,
		capLeft:  make([]float64, links),
		members:  make([][]int32, links),
		unfrozen: make([]int, links),
	}
	n.complete = n.completeDue
	return n
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats { return n.stats }

// Active returns the number of in-flight flows.
func (n *Network) Active() int { return len(n.flows) }

// Send starts a transfer of bytes from src node to dst node and invokes
// done on completion. Zero-byte transfers complete immediately (next
// event). The returned handle is dead once the flow completes (see Flow).
func (n *Network) Send(src, dst int, bytes float64, done func()) *Flow {
	if src < 0 || src >= n.nodes || dst < 0 || dst >= n.nodes {
		panic("netsim: node out of range")
	}
	if bytes < 0 {
		panic("netsim: negative transfer")
	}
	n.advance()
	var f *Flow
	if k := len(n.free); k > 0 {
		f = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		f = new(Flow)
	}
	*f = Flow{src: src, dst: dst, bytes: bytes, remaining: bytes, start: n.eng.Now(), done: done}
	if src == dst {
		f.links[0], f.nlinks = src*linkKinds+linkBridge, 1
		n.stats.BridgeFlows++
	} else {
		f.links, f.nlinks = [2]int{src*linkKinds + linkUp, dst*linkKinds + linkDown}, 2
	}
	n.flows = append(n.flows, f)
	n.stats.Flows++
	n.recompute()
	return f
}

// advance drains progress since the last membership change.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := now.Sub(n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		moved := f.rate * dt
		f.remaining -= moved
		n.stats.Bytes += moved
	}
}

// A link is a capacity constraint, indexed node*linkKinds + kind: NIC
// uplink and downlink per node, and the bridge per node.
const (
	linkUp = iota
	linkDown
	linkBridge
	linkKinds
)

// recompute performs max-min water-filling over all links and re-arms the
// next completion event.
func (n *Network) recompute() {
	if n.next != nil {
		n.next.Cancel()
		n.next = nil
	}
	if len(n.flows) == 0 {
		return
	}

	// Build link membership. Links are collected in first-use order and
	// members in flow-insertion order so the water-filling iteration is
	// deterministic.
	for _, l := range n.order {
		n.members[l] = n.members[l][:0]
	}
	n.order = n.order[:0]
	for i, f := range n.flows {
		f.frozen = false
		for _, l := range f.links[:f.nlinks] {
			if len(n.members[l]) == 0 {
				if l%linkKinds == linkBridge {
					n.capLeft[l] = n.cfg.BridgeBps
				} else {
					n.capLeft[l] = n.cfg.NICBps
				}
				n.order = append(n.order, l)
			}
			n.members[l] = append(n.members[l], int32(i))
		}
	}
	for _, l := range n.order {
		n.unfrozen[l] = len(n.members[l])
	}

	for frozen := 0; frozen < len(n.flows); {
		// Find the bottleneck link: smallest fair share among links with
		// unfrozen flows.
		bott := -1
		best := math.Inf(1)
		for _, l := range n.order {
			k := n.unfrozen[l]
			if k == 0 {
				continue
			}
			share := n.capLeft[l] / float64(k)
			if share < best {
				best, bott = share, l
			}
		}
		if bott < 0 {
			break
		}
		for _, i := range n.members[bott] {
			f := n.flows[i]
			if f.frozen {
				continue
			}
			f.frozen = true
			f.rate = best
			frozen++
			for _, l := range f.links[:f.nlinks] {
				n.unfrozen[l]--
				n.capLeft[l] -= best
				if n.capLeft[l] < 0 {
					n.capLeft[l] = 0
				}
			}
		}
	}

	// Arm completion for the earliest-finishing flow.
	eta := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < eta {
			eta = t
		}
	}
	if math.IsInf(eta, 1) {
		return
	}
	if eta < 0 {
		eta = 0
	}
	d := sim.DurationFromSeconds(eta)
	if d == 0 && eta > 0 {
		// Sub-nanosecond residue must still advance the clock, or the
		// completion event would loop at the current instant forever.
		d = 1
	}
	n.next = n.eng.Schedule(d, n.complete)
}

// completeDue retires all flows that have drained.
func (n *Network) completeDue() {
	n.next = nil
	n.advance()
	const eps = 1.0 // sub-byte residue is float noise
	finished := n.finished[:0]
	live := n.flows[:0]
	for _, f := range n.flows {
		if f.remaining <= eps {
			finished = append(finished, f)
		} else {
			live = append(live, f)
		}
	}
	clear(n.flows[len(live):]) // the backing array must not keep finished flows alive
	n.flows = live
	n.recompute()
	for _, f := range finished {
		if n.OnFlowDone != nil {
			n.OnFlowDone(f)
		}
		// Recycle before done runs, so a transfer that done starts reuses
		// the flow it follows.
		done := f.done
		f.done = nil
		n.free = append(n.free, f)
		if done != nil {
			done()
		}
	}
	clear(finished)
	n.finished = finished[:0]
}
