package cluster

import (
	"slices"
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/check"
	"adaptmr/internal/iosched"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 2
	cfg.VMsPerHost = 3
	return cfg
}

func TestConstructionWiring(t *testing.T) {
	cl := New(smallConfig())
	if len(cl.Hosts) != 2 {
		t.Fatalf("hosts = %d", len(cl.Hosts))
	}
	if cl.NumVMs() != 6 {
		t.Fatalf("vms = %d", cl.NumVMs())
	}
	if len(cl.DFS.Nodes()) != 6 {
		t.Fatalf("datanodes = %d", len(cl.DFS.Nodes()))
	}
	for vm := 0; vm < cl.NumVMs(); vm++ {
		if cl.FS(vm) == nil {
			t.Fatalf("no fs for vm %d", vm)
		}
		wantHost := vm / 3
		if cl.HostOf(vm) != wantHost {
			t.Fatalf("HostOf(%d) = %d", vm, cl.HostOf(vm))
		}
		if cl.Domain(vm).Host() != cl.Hosts[wantHost] {
			t.Fatalf("domain %d on wrong host", vm)
		}
		if cl.DFS.Nodes()[vm].HostID != wantHost {
			t.Fatalf("datanode %d host %d", vm, cl.DFS.Nodes()[vm].HostID)
		}
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Hosts != 4 || cfg.VMsPerHost != 4 {
		t.Fatalf("testbed %dx%d", cfg.Hosts, cfg.VMsPerHost)
	}
	if cfg.HDFS.BlockBytes != 64<<20 || cfg.HDFS.Replication != 2 {
		t.Fatalf("hdfs %+v", cfg.HDFS)
	}
	cl := New(cfg)
	if cl.Pair() != iosched.DefaultPair {
		t.Fatalf("boot pair %v", cl.Pair())
	}
}

func TestInstallPair(t *testing.T) {
	cl := New(smallConfig())
	p := iosched.Pair{VMM: iosched.Anticipatory, VM: iosched.Deadline}
	cl.InstallPair(p)
	if cl.Pair() != p {
		t.Fatalf("pair %v", cl.Pair())
	}
	for _, h := range cl.Hosts {
		if h.Dom0Queue().Elevator().Name() != iosched.Anticipatory {
			t.Fatal("dom0 elevator not installed")
		}
	}
}

func TestSetPairAllCompletion(t *testing.T) {
	cl := New(smallConfig())
	done := false
	cl.SetPairAll(iosched.Pair{VMM: iosched.Noop, VM: iosched.Noop}, func() { done = true })
	cl.Eng.Run()
	if !done {
		t.Fatal("SetPairAll callback never fired")
	}
	for _, h := range cl.Hosts {
		if h.Pair().VMM != iosched.Noop {
			t.Fatal("host missed the switch")
		}
	}
}

// burst submits n one-sector reads to every VM and drains the engine.
func burst(cl *Cluster, n int) {
	for vm := 0; vm < cl.NumVMs(); vm++ {
		for i := 0; i < n; i++ {
			cl.Domain(vm).Submit(block.Read, int64(i)*64, 1, true, 1, nil)
		}
	}
	cl.Eng.Run()
}

// TestRequestPoolsCarryOver pins the pool hand-off: a cluster built with
// a drained cluster's pools draws from them, so the same burst allocates
// no request the first cluster did not already return, and a checked
// cluster, whose pools only detect, offers none.
func TestRequestPoolsCarryOver(t *testing.T) {
	first := New(smallConfig())
	burst(first, 20)
	pools := first.RequestPools()
	if len(pools) != 2 || slices.Contains(pools, nil) {
		t.Fatalf("RequestPools = %v, want one pool per host", pools)
	}
	before := make([]block.PoolStats, len(pools))
	for i, p := range pools {
		before[i] = p.Stats()
	}
	cfg := smallConfig()
	cfg.Pools = pools
	second := New(cfg)
	if got := second.RequestPools(); !slices.Equal(got, pools) {
		t.Fatalf("second cluster's pools %v, want the first's %v", got, pools)
	}
	burst(second, 20)
	for i, p := range pools {
		st := p.Stats()
		if gets, reuses := st.Gets-before[i].Gets, st.Reuses-before[i].Reuses; gets == 0 || reuses != gets {
			t.Errorf("host %d: second burst got %d requests, %d reused, want all reused", i, gets, reuses)
		}
	}

	checked := smallConfig()
	checked.Check = check.NewSet()
	if got := New(checked).RequestPools(); got != nil {
		t.Fatalf("checked cluster offers pools %v", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{})
}
