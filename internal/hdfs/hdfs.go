// Package hdfs models the Hadoop Distributed File System as the paper's
// testbed used it: every VM runs a datanode co-located with its
// tasktracker, map input blocks are placed node-locally (Hadoop locality
// scheduling makes nearly all map reads local), and written blocks are
// replicated — one copy on the writing datanode, one pipelined to a
// datanode on a different physical host.
package hdfs

import (
	"fmt"

	"adaptmr/internal/block"
	"adaptmr/internal/guestio"
	"adaptmr/internal/netsim"
	"adaptmr/internal/sim"
)

// Config sets the filesystem-wide parameters.
type Config struct {
	// BlockBytes is the HDFS block size (paper era default: 64 MB).
	BlockBytes int64
	// Replication is the number of copies per block (paper: 2).
	Replication int
}

// DefaultConfig returns the paper's HDFS settings.
func DefaultConfig() Config {
	return Config{BlockBytes: 64 << 20, Replication: 2}
}

// DataNode is one datanode: a guest filesystem plus its physical location.
type DataNode struct {
	FS     *guestio.FS
	HostID int
}

// DFS is the namenode view: block placement plus client read/write paths.
type DFS struct {
	eng   *sim.Engine
	cfg   Config
	nodes []DataNode
	net   *netsim.Network

	nextReplica int
	nextFile    int

	// BlocksWritten counts blocks committed through writers.
	BlocksWritten int64
	// ReplicaBytes counts bytes shipped to second replicas.
	ReplicaBytes int64
}

// New assembles a DFS over the given datanodes.
func New(eng *sim.Engine, cfg Config, nodes []DataNode, net *netsim.Network) *DFS {
	if cfg.BlockBytes <= 0 || cfg.Replication < 1 {
		panic("hdfs: invalid config")
	}
	if len(nodes) == 0 {
		panic("hdfs: no datanodes")
	}
	return &DFS{eng: eng, cfg: cfg, nodes: nodes, net: net}
}

// Nodes returns the datanodes.
func (d *DFS) Nodes() []DataNode { return d.nodes }

// PlaceInput pre-loads bytes of input data on datanode vm as local blocks
// (the replica consulted by a data-local map task) and returns one file per
// block. The data is cold: reading it hits the disk.
func (d *DFS) PlaceInput(vm int, bytes int64) []*guestio.File {
	var files []*guestio.File
	n := 0
	for off := int64(0); off < bytes; off += d.cfg.BlockBytes {
		sz := d.cfg.BlockBytes
		if off+sz > bytes {
			sz = bytes - off
		}
		f := d.nodes[vm].FS.Create(fmt.Sprintf("input-vm%d-blk%d", vm, n))
		f.Preallocate(sz)
		files = append(files, f)
		n++
	}
	return files
}

// chooseReplica picks a datanode for the second replica: round-robin over
// datanodes on hosts other than the writer's.
func (d *DFS) chooseReplica(writer int) int {
	n := len(d.nodes)
	for i := 1; i <= n; i++ {
		c := (d.nextReplica + i) % n
		if d.nodes[c].HostID != d.nodes[writer].HostID {
			d.nextReplica = c
			return c
		}
	}
	// Single-host cluster: any other VM (bridge traffic).
	return (writer + 1) % n
}

// Writer streams a new HDFS file from datanode vm: data is appended to the
// local datanode's disk through its page cache while each completed block
// is pipelined over the network to a replica datanode. Close flushes the
// local copy and waits for replica acknowledgements.
type Writer struct {
	dfs    *DFS
	vm     int
	stream block.StreamID
	local  *guestio.File

	blockFill int64 // bytes in the current (unreplicated) block
	pendAcks  int
	closed    bool
	closeCB   func()
}

// NewWriter opens a streaming HDFS writer on datanode vm as process stream.
func (d *DFS) NewWriter(vm int, stream block.StreamID) *Writer {
	d.nextFile++
	return &Writer{
		dfs:    d,
		vm:     vm,
		stream: stream,
		local:  d.nodes[vm].FS.Create(fmt.Sprintf("hdfs-out-%d-vm%d", d.nextFile, vm)),
	}
}

// Write appends bytes to the file; cb runs when the local write call
// returns (possibly delayed by dirty-page throttling).
func (w *Writer) Write(bytes int64, cb func()) {
	if w.closed {
		panic("hdfs: write after close")
	}
	if bytes <= 0 {
		w.dfs.eng.Schedule(0, cb)
		return
	}
	w.local.Append(w.stream, bytes, cb)
	w.blockFill += bytes
	for w.blockFill >= w.dfs.cfg.BlockBytes {
		w.blockFill -= w.dfs.cfg.BlockBytes
		w.commitBlock(w.dfs.cfg.BlockBytes)
	}
}

// Close commits the trailing partial block, flushes the local replica and
// calls cb when every block is durable locally and acknowledged remotely.
func (w *Writer) Close(cb func()) {
	if w.closed {
		panic("hdfs: double close")
	}
	w.closed = true
	w.closeCB = cb
	if w.blockFill > 0 {
		w.commitBlock(w.blockFill)
		w.blockFill = 0
	}
	w.pendAcks++ // local fsync counts as one ack
	w.local.Sync(w.stream, w.ack)
}

func (w *Writer) ack() {
	w.pendAcks--
	if w.pendAcks == 0 && w.closed && w.closeCB != nil {
		cb := w.closeCB
		w.closeCB = nil
		cb()
	}
}

// commitBlock replicates one finished block.
func (w *Writer) commitBlock(bytes int64) {
	d := w.dfs
	d.BlocksWritten++
	if d.cfg.Replication < 2 || len(d.nodes) < 2 {
		return
	}
	w.pendAcks++
	replica := d.chooseReplica(w.vm)
	rn := d.nodes[replica]
	d.ReplicaBytes += bytes
	d.net.Send(d.nodes[w.vm].HostID, rn.HostID, float64(bytes), func() {
		rf := rn.FS.Create(fmt.Sprintf("hdfs-rep-vm%d", w.vm))
		// The replica datanode writes with its own daemon identity.
		rf.Append(rn.FS.DaemonStream(), bytes, w.ack)
	})
}

// WriteFile writes bytes in one shot through a Writer; cb runs when the
// file is fully committed.
func (d *DFS) WriteFile(vm int, stream block.StreamID, bytes int64, cb func()) {
	w := d.NewWriter(vm, stream)
	w.Write(bytes, func() {})
	w.Close(cb)
}
