// Package cluster assembles the full virtual testbed from one Config: a
// simulation engine, N physical Xen hosts with M guest VMs each, a guest
// filesystem per VM, the cluster network, and HDFS with a datanode per VM —
// the paper's 4-node / 16-VM environment by default.
package cluster

import (
	"fmt"

	"adaptmr/internal/block"
	"adaptmr/internal/check"
	"adaptmr/internal/guestio"
	"adaptmr/internal/hdfs"
	"adaptmr/internal/iosched"
	"adaptmr/internal/netsim"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
	"adaptmr/internal/xen"
)

// Config describes the testbed.
type Config struct {
	// Hosts is the number of physical nodes (paper default 4).
	Hosts int
	// VMsPerHost is the consolidation degree (paper default 4).
	VMsPerHost int
	// Host configures each physical node and its guests.
	Host xen.HostConfig
	// Net configures the cluster fabric.
	Net netsim.Config
	// Guest configures the guest OS I/O path.
	Guest guestio.Config
	// HDFS configures block size and replication.
	HDFS hdfs.Config
	// Seed feeds the deterministic random source.
	Seed int64

	// Obs attaches the observability layer (tracer and/or metrics) to
	// every component built for this cluster. The zero value disables
	// observation entirely.
	Obs obs.Sink

	// Check, when non-nil, attaches runtime invariant checkers to every
	// block queue in the cluster (each host's Dom0 queue and every guest
	// queue). See internal/check; nil disables checking at zero cost.
	Check *check.Set

	// Pools, when set, hands host i the recycling request pool Pools[i]
	// (see xen.HostConfig.Pool), so a cluster reuses the requests an
	// earlier, drained cluster returned (see PoolShelf). A pool is
	// single-threaded: hand a set to one running cluster at a time, as
	// core.Runner does with its evaluations. Checked and journey-tracing
	// hosts ignore it.
	Pools []*block.Pool

	// HostDiskSlowdown optionally makes specific hosts' disks slower by
	// the given factor (2.0 = half the transfer rate, double the seeks) —
	// the heterogeneous-cluster scenario under which the paper warns its
	// synchronised-phase assumption degrades.
	HostDiskSlowdown map[int]float64
}

// DefaultConfig returns the paper's testbed: 4 hosts × 4 VMs.
func DefaultConfig() Config {
	return Config{
		Hosts:      4,
		VMsPerHost: 4,
		Host:       xen.DefaultHostConfig(),
		Net:        netsim.DefaultConfig(),
		Guest:      guestio.DefaultConfig(),
		HDFS:       hdfs.DefaultConfig(),
		Seed:       1,
	}
}

// Cluster is the instantiated testbed.
type Cluster struct {
	Eng   *sim.Engine
	Hosts []*xen.Host
	Net   *netsim.Network
	DFS   *hdfs.DFS

	fss []*guestio.FS // indexed by global VM id
	cfg Config
}

// New builds a cluster.
func New(cfg Config) *Cluster {
	if cfg.Hosts <= 0 || cfg.VMsPerHost <= 0 {
		panic("cluster: need at least one host and one VM")
	}
	eng := sim.New(cfg.Seed)
	c := &Cluster{Eng: eng, cfg: cfg}
	c.Net = netsim.New(eng, cfg.Hosts, cfg.Net)
	if cfg.Obs.Enabled() {
		cfg.Obs.InstrumentEngine(eng)
		if tr := cfg.Obs.Trace; tr != nil {
			tr.NameProcess(cfg.Obs.ClusterPID(), cfg.Obs.ProcName("cluster"))
			tr.NameThread(cfg.Obs.ClusterPID(), obs.TIDJob, "job")
		}
		c.instrumentNet()
	}
	var nodes []hdfs.DataNode
	for h := 0; h < cfg.Hosts; h++ {
		hostCfg := cfg.Host
		hostCfg.Obs = cfg.Obs
		hostCfg.Check = cfg.Check
		if h < len(cfg.Pools) {
			hostCfg.Pool = cfg.Pools[h]
		}
		if f, ok := cfg.HostDiskSlowdown[h]; ok && f > 0 {
			hostCfg.Disk.TransferMBps /= f
			hostCfg.Disk.SeekMin = sim.Duration(float64(hostCfg.Disk.SeekMin) * f)
			hostCfg.Disk.SeekMax = sim.Duration(float64(hostCfg.Disk.SeekMax) * f)
			hostCfg.Disk.SettleTime = sim.Duration(float64(hostCfg.Disk.SettleTime) * f)
		}
		host := xen.NewHost(eng, h, cfg.VMsPerHost, hostCfg)
		c.Hosts = append(c.Hosts, host)
		for v := 0; v < cfg.VMsPerHost; v++ {
			fs := guestio.NewFS(eng, host.Domain(v), cfg.Guest)
			c.fss = append(c.fss, fs)
			nodes = append(nodes, hdfs.DataNode{FS: fs, HostID: h})
		}
	}
	c.DFS = hdfs.New(eng, cfg.HDFS, nodes, c.Net)
	return c
}

// PoolShelf passes request pools from one run's testbed to the next, for
// owners that build clusters one after another: an owner Takes a set
// for each cluster it builds (Config.Pools) and Puts the set back once
// that cluster's run has completed, when every request is back in its
// pool, so the next cluster starts with the requests the last one
// allocated. An abandoned run's in-flight requests never return, so its
// set is dropped, not put back. Safe for concurrent use; the zero value
// shelves nothing and hands out fresh sets.
type PoolShelf chan []*block.Pool

// NewPoolShelf returns a shelf that holds up to n sets.
func NewPoolShelf(n int) PoolShelf { return make(PoolShelf, n) }

// Take returns a shelved set, or a fresh one when none is shelved, grown
// to at least one pool per host.
func (s PoolShelf) Take(hosts int) []*block.Pool {
	var set []*block.Pool
	select {
	case set = <-s:
	default:
	}
	for len(set) < hosts {
		set = append(set, block.NewPool(false, nil))
	}
	return set
}

// Put shelves set, whose last run completed, or drops it when the shelf
// is full.
func (s PoolShelf) Put(set []*block.Pool) {
	select {
	case s <- set:
	default:
	}
}

// instrumentNet subscribes flow tracing/metrics to the network. Flow spans
// land on the source host's NIC thread; same-host bridge traffic too.
func (c *Cluster) instrumentNet() {
	s := c.cfg.Obs
	flows := s.Metrics.Counter("net.flows")
	bytes := s.Metrics.Counter("net.bytes")
	tr := s.Trace
	c.Net.OnFlowDone = func(f *netsim.Flow) {
		flows.Inc()
		bytes.Add(int64(f.Bytes()))
		if tr != nil {
			tr.AsyncSpan(s.HostPID(f.Src()), obs.TIDNet, "net", "flow",
				f.Start(), c.Eng.Now(),
				obs.I("src", int64(f.Src())),
				obs.I("dst", int64(f.Dst())),
				obs.I("bytes", int64(f.Bytes())))
		}
	}
}

// Obs returns the observability sink the cluster was built with.
func (c *Cluster) Obs() obs.Sink { return c.cfg.Obs }

// Config returns the construction parameters.
func (c *Cluster) Config() Config { return c.cfg }

// NumVMs returns the total VM count.
func (c *Cluster) NumVMs() int { return c.cfg.Hosts * c.cfg.VMsPerHost }

// FS returns the guest filesystem of global VM vm.
func (c *Cluster) FS(vm int) *guestio.FS {
	return c.fss[vm]
}

// HostOf returns the physical host index of global VM vm.
func (c *Cluster) HostOf(vm int) int { return vm / c.cfg.VMsPerHost }

// Domain returns the xen domain of global VM vm.
func (c *Cluster) Domain(vm int) *xen.Domain {
	return c.Hosts[c.HostOf(vm)].Domain(vm % c.cfg.VMsPerHost)
}

// Pair returns the scheduler pair installed on host 0 (pairs are always set
// cluster-wide).
func (c *Cluster) Pair() iosched.Pair { return c.Hosts[0].Pair() }

// SetPairAll switches the scheduler pair on every host; onDone fires when
// every queue in the cluster has completed its switch.
func (c *Cluster) SetPairAll(p iosched.Pair, onDone func()) {
	remaining := len(c.Hosts)
	for _, h := range c.Hosts {
		h.SetPair(p, func() {
			remaining--
			if remaining == 0 && onDone != nil {
				onDone()
			}
		})
	}
}

// InstallPair installs a pair "at boot": the elevators are replaced
// directly with no drain or stall. Only valid while the cluster is idle.
func (c *Cluster) InstallPair(p iosched.Pair) {
	for _, h := range c.Hosts {
		if !h.Idle() {
			panic(fmt.Sprintf("cluster: InstallPair on busy host %d", h.ID))
		}
		h.SetPair(p, nil)
	}
	// Drain the (instant) switch events.
	c.Eng.RunUntil(c.Eng.Now().Add(c.cfg.Host.SwitchReinit + sim.Second))
}
