package cluster

import (
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/check"
	"adaptmr/internal/iosched"
	"adaptmr/internal/obs"
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

// TestRequestPoolsCarryOver pins the pool hand-off: every host of a
// cluster, a journey-traced one included, draws every request of both
// queue levels from the one Config.Pool; a cluster built with the pool a
// drained cluster put on the shelf draws from it, so the same burst
// allocates no request the first cluster did not already return; and a
// checked cluster, whose pools only detect, leaves the pool alone.
func TestRequestPoolsCarryOver(t *testing.T) {
	const n = 20
	for _, journeys := range []bool{false, true} {
		shelf := NewPoolShelf(1)
		cfg := smallConfig()
		if journeys {
			cfg.Obs.Journeys = obs.NewJourneyLog()
		}
		cfg.Pool = shelf.Take()
		pool := cfg.Pool
		cl := New(cfg)
		if cl.Config().Pool != pool {
			t.Fatalf("journeys %v: cluster pool %p, want the one handed in %p", journeys, cl.Config().Pool, pool)
		}
		burst(cl, n)
		shelf.Put(pool)
		// No two requests of a burst are contiguous, so none merge, and each
		// guest request spawns one Dom0 request.
		before := pool.Stats()
		if want := uint64(2 * n * cl.NumVMs()); before.Gets != want || before.Puts != before.Gets {
			t.Fatalf("journeys %v: first burst %+v, want %d requests drawn by every host and every one back", journeys, before, want)
		}
		cfg.Pool = shelf.Take()
		if cfg.Pool != pool {
			t.Fatalf("journeys %v: second cluster's pool %p, want the first's %p", journeys, cfg.Pool, pool)
		}
		burst(New(cfg), n)
		st := pool.Stats()
		if gets, reuses := st.Gets-before.Gets, st.Reuses-before.Reuses; gets != before.Gets || reuses != gets {
			t.Errorf("journeys %v: second burst got %d requests, %d reused, want all %d reused", journeys, gets, reuses, before.Gets)
		}
		shelf.Put(pool)
		if shelf.Take() != pool || shelf.Take() == pool {
			t.Fatalf("journeys %v: the shelf handed out its pool twice or not at all", journeys)
		}
	}
	if New(smallConfig()).Config().Pool == nil {
		t.Fatal("a cluster built without a pool has none")
	}

	checked := smallConfig()
	checked.Check = check.NewSet()
	checked.Pool = NewPoolShelf(1).Take()
	burst(New(checked), n)
	if st := checked.Pool.Stats(); st.Gets != 0 {
		t.Errorf("checked hosts drew %d requests from the pool they were handed", st.Gets)
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
