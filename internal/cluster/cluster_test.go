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
// the set a drained cluster put on the shelf draws from it, so the same
// burst allocates no request the first cluster did not already return,
// and a checked cluster, whose pools only detect, leaves the set alone.
func TestRequestPoolsCarryOver(t *testing.T) {
	shelf := NewPoolShelf(1)
	cfg := smallConfig()
	cfg.Pools = shelf.Take(cfg.Hosts)
	pools := cfg.Pools
	if len(pools) != 2 || slices.Contains(pools, nil) {
		t.Fatalf("Take = %v, want one pool per host", pools)
	}
	burst(New(cfg), 20)
	shelf.Put(pools)
	before := make([]block.PoolStats, len(pools))
	for i, p := range pools {
		if before[i] = p.Stats(); before[i].Gets == 0 || before[i].Puts != before[i].Gets {
			t.Fatalf("host %d: first burst %+v, want every request back", i, before[i])
		}
	}
	cfg.Pools = shelf.Take(cfg.Hosts)
	if !slices.Equal(cfg.Pools, pools) {
		t.Fatalf("second cluster's pools %v, want the first's %v", cfg.Pools, pools)
	}
	burst(New(cfg), 20)
	for i, p := range pools {
		st := p.Stats()
		if gets, reuses := st.Gets-before[i].Gets, st.Reuses-before[i].Reuses; gets == 0 || reuses != gets {
			t.Errorf("host %d: second burst got %d requests, %d reused, want all reused", i, gets, reuses)
		}
	}
	shelf.Put(pools)

	// A wider testbed gets the set grown by a fresh pool per extra host.
	if got := shelf.Take(3); !slices.Equal(got[:2], pools) || len(got) != 3 || got[2] == nil {
		t.Fatalf("Take(3) = %v, want the shelved set and one fresh pool", got)
	}
	if got := shelf.Take(2); slices.Contains(got, pools[0]) {
		t.Fatalf("empty shelf handed out %v again", got)
	}

	checked := smallConfig()
	checked.Check = check.NewSet()
	checked.Pools = shelf.Take(checked.Hosts)
	burst(New(checked), 20)
	for i, p := range checked.Pools {
		if st := p.Stats(); st.Gets != 0 {
			t.Errorf("checked host %d drew %d requests from the set it was handed", i, st.Gets)
		}
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
