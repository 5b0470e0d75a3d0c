// Package block models the Linux block layer used at both levels of the
// virtualized I/O stack: a Request is a contiguous sector extent with an
// operation and synchrony flag, and a Queue binds an elevator (I/O
// scheduler) to an underlying device, handling merging, dispatch, and
// drain-based elevator switching (the mechanism behind the paper's
// switch-cost measurements).
package block

import (
	"fmt"

	"adaptmr/internal/sim"
)

// SectorSize is the unit of a Request extent, in bytes (standard 512 B).
const SectorSize = 512

// Op is the direction of a block request.
type Op uint8

const (
	// Read transfers data from the device.
	Read Op = iota
	// Write transfers data to the device.
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// StreamID identifies the issuing context an elevator uses for fairness and
// anticipation decisions. Inside a guest it is the process (task) id; at the
// VMM level it is the virtual machine id (the VMM sees each VM as one
// process, as the paper notes).
type StreamID int32

// Request is one block I/O request traveling through a Queue.
//
// A request is created by the issuing layer, possibly grown by merging while
// it sits in an elevator, dispatched to the device, and completed exactly
// once via its callback.
type Request struct {
	Op     Op
	Sector int64 // first sector of the extent
	Count  int64 // number of sectors
	Sync   bool  // issuer blocks on completion (reads, fsync-driven writes)
	Stream StreamID

	// Issued is set by the Queue when the request enters the elevator.
	Issued sim.Time
	// Dispatched is set when the request is handed to the device.
	Dispatched sim.Time
	// Completed is set when the device finishes the request.
	Completed sim.Time

	// OnComplete is invoked exactly once when the request finishes.
	OnComplete func(*Request)

	// Journey, when non-zero, is the request-journey id threaded through
	// both levels of the virtualized stack: the guest queue assigns it at
	// submission and the blkfront/blkback ring copies it onto the Dom0
	// request it spawns, so a physical service can be attributed back to
	// the guest submission it served. Zero means untracked.
	Journey int64
	// BacklogHold accumulates the time this request spent held in a
	// switch backlog (submitted while an elevator switch was draining),
	// so journey decompositions can attribute switch stall exactly.
	BacklogHold sim.Duration

	// merged tracks requests coalesced into this one; their callbacks run
	// when this request completes.
	merged []*Request
	// mergedInto points from a coalesced request back to the request that
	// absorbed it (observer hooks report merge pairs through it).
	mergedInto *Request

	// state guards against double-dispatch / double-complete bugs.
	state reqState

	// pool, when non-nil, owns this request's memory: the completing Queue
	// returns the request there after its completion hooks run.
	pool *Pool
}

type reqState uint8

const (
	stateNew reqState = iota
	stateQueued
	stateDispatched
	stateDone
	stateMerged
	// stateFreed marks a pool-owned request returned to its pool; any
	// further use is a lifecycle violation.
	stateFreed
)

// NewRequest builds a request covering count sectors starting at sector.
func NewRequest(op Op, sector, count int64, sync bool, stream StreamID) *Request {
	checkExtent(sector, count)
	return &Request{Op: op, Sector: sector, Count: count, Sync: sync, Stream: stream}
}

// checkExtent panics on an extent no request may cover.
func checkExtent(sector, count int64) {
	if count <= 0 {
		panic(fmt.Sprintf("block: request with non-positive count %d", count))
	}
	if sector < 0 {
		panic(fmt.Sprintf("block: request with negative sector %d", sector))
	}
}

// End returns the sector just past the extent.
func (r *Request) End() int64 { return r.Sector + r.Count }

// Bytes returns the size of the extent in bytes.
func (r *Request) Bytes() int64 { return r.Count * SectorSize }

// IsSyncFull reports whether the elevator should treat the request as
// synchronous: all reads are synchronous (someone is waiting on the data),
// writes only when explicitly flagged (fsync/direct writes).
func (r *Request) IsSyncFull() bool { return r.Op == Read || r.Sync }

func (r *Request) String() string {
	return fmt.Sprintf("%s[%d+%d stream=%d sync=%v]", r.Op, r.Sector, r.Count, r.Stream, r.Sync)
}

// CanBackMerge reports whether next can be appended to r
// (same direction, same stream, contiguous, combined size under limit).
func (r *Request) CanBackMerge(next *Request, maxSectors int64) bool {
	return r.Op == next.Op &&
		r.Stream == next.Stream &&
		r.IsSyncFull() == next.IsSyncFull() &&
		r.End() == next.Sector &&
		r.Count+next.Count <= maxSectors
}

// CanFrontMerge reports whether incoming can be prepended to r
// (incoming ends exactly where r starts).
func (r *Request) CanFrontMerge(incoming *Request, maxSectors int64) bool {
	return r.Op == incoming.Op &&
		r.Stream == incoming.Stream &&
		r.IsSyncFull() == incoming.IsSyncFull() &&
		incoming.End() == r.Sector &&
		r.Count+incoming.Count <= maxSectors
}

// BackMerge appends next's extent to r. next's completion callback fires
// when r completes.
func (r *Request) BackMerge(next *Request) {
	if r.End() != next.Sector || r.Op != next.Op {
		panic("block: invalid back merge")
	}
	r.Count += next.Count
	next.state = stateMerged
	next.mergedInto = r
	r.merged = append(r.merged, next)
}

// FrontMerge prepends prev's extent to r.
func (r *Request) FrontMerge(prev *Request) {
	if prev.End() != r.Sector || r.Op != prev.Op {
		panic("block: invalid front merge")
	}
	r.Sector = prev.Sector
	r.Count += prev.Count
	prev.state = stateMerged
	prev.mergedInto = r
	r.merged = append(r.merged, prev)
}

// finish runs completion callbacks for r and everything merged into it.
func (r *Request) finish(now sim.Time) {
	r.Completed = now
	r.state = stateDone
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
	for _, m := range r.merged {
		m.Completed = now
		m.state = stateDone
		if m.OnComplete != nil {
			m.OnComplete(m)
		}
	}
	// Truncate rather than nil so a pooled request keeps the backing array
	// across recycling; the completing Queue nils the slots after freeing
	// the children (it still holds the full-length view).
	r.merged = r.merged[:0]
}
