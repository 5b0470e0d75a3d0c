package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"adaptmr/internal/sim"
)

func testNet(nodes int) (*sim.Engine, *Network) {
	eng := sim.New(1)
	return eng, New(eng, nodes, Config{NICBps: 100e6, BridgeBps: 400e6})
}

func TestSingleFlowFullRate(t *testing.T) {
	eng, n := testNet(2)
	var done sim.Time
	n.Send(0, 1, 100e6, func() { done = eng.Now() })
	eng.Run()
	if math.Abs(done.Seconds()-1.0) > 1e-6 {
		t.Fatalf("100MB at 100MB/s took %v", done)
	}
	if n.Active() != 0 {
		t.Fatalf("active = %d", n.Active())
	}
}

func TestTwoFlowsShareUplink(t *testing.T) {
	eng, n := testNet(3)
	var t1, t2 sim.Time
	n.Send(0, 1, 50e6, func() { t1 = eng.Now() })
	n.Send(0, 2, 50e6, func() { t2 = eng.Now() })
	eng.Run()
	// Both share node 0's uplink: 50 MB each at 50 MB/s → 1s.
	if math.Abs(t1.Seconds()-1.0) > 1e-6 || math.Abs(t2.Seconds()-1.0) > 1e-6 {
		t.Fatalf("finish %v %v, want 1s both", t1, t2)
	}
}

func TestDownlinkBottleneck(t *testing.T) {
	eng, n := testNet(3)
	var t1, t2 sim.Time
	n.Send(0, 2, 50e6, func() { t1 = eng.Now() })
	n.Send(1, 2, 50e6, func() { t2 = eng.Now() })
	eng.Run()
	// Different uplinks, shared downlink at node 2.
	if math.Abs(t1.Seconds()-1.0) > 1e-6 || math.Abs(t2.Seconds()-1.0) > 1e-6 {
		t.Fatalf("finish %v %v", t1, t2)
	}
}

func TestMaxMinUnevenShares(t *testing.T) {
	eng, n := testNet(4)
	// Flow A: 0→1 alone on its links after B is bottlenecked elsewhere.
	// B and C share node 3's downlink; A shares node 0's uplink with B.
	fA := n.Send(0, 1, 1e9, nil)
	fB := n.Send(0, 3, 1e9, nil)
	fC := n.Send(2, 3, 1e9, nil)
	// Max-min: node0 up serves A+B (50/50); node3 down serves B+C (50/50);
	// B bottlenecked at 50; A gets remaining 50... then A could take up to
	// 50 more? Water-filling: all links have 2 flows at 50 → all frozen at
	// 50 except A: after B frozen at 50, node0 has 50 left for A alone →
	// A = 50? No: A freezes in the same round at share 50. C likewise.
	if math.Abs(fA.Rate()-50e6) > 1 || math.Abs(fB.Rate()-50e6) > 1 || math.Abs(fC.Rate()-50e6) > 1 {
		t.Fatalf("rates %v %v %v", fA.Rate(), fB.Rate(), fC.Rate())
	}
	_ = eng
}

func TestRateIncreasesWhenFlowLeaves(t *testing.T) {
	eng, n := testNet(2)
	long := n.Send(0, 1, 200e6, nil)
	n.Send(0, 1, 50e6, nil) // shares 50/50, finishes at 1s
	eng.RunUntil(sim.Time(1500 * sim.Millisecond))
	if math.Abs(long.Rate()-100e6) > 1 {
		t.Fatalf("survivor rate = %v, want full link", long.Rate())
	}
	eng.Run()
	// long: 1s at 50 + remaining 150MB at 100 → 2.5s total.
	if math.Abs(eng.Now().Seconds()-2.5) > 1e-6 {
		t.Fatalf("long flow finished at %v", eng.Now())
	}
}

func TestBridgeFlowsBypassNIC(t *testing.T) {
	eng, n := testNet(2)
	var tb sim.Time
	n.Send(0, 0, 400e6, func() { tb = eng.Now() })
	nic := n.Send(0, 1, 100e6, nil)
	eng.Run()
	// Bridge flow gets 400 MB/s and does not affect the NIC flow.
	if math.Abs(tb.Seconds()-1.0) > 1e-6 {
		t.Fatalf("bridge flow took %v", tb)
	}
	_ = nic
	st := n.Stats()
	if st.BridgeFlows != 1 || st.Flows != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	eng, n := testNet(2)
	done := false
	n.Send(0, 1, 0, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestValidation(t *testing.T) {
	eng, n := testNet(2)
	for _, fn := range []func(){
		func() { n.Send(-1, 0, 1, nil) },
		func() { n.Send(0, 5, 1, nil) },
		func() { n.Send(0, 1, -1, nil) },
		func() { New(eng, 0, DefaultConfig()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

// Property: byte conservation — the network delivers exactly the bytes
// offered, and all flows complete.
func TestQuickByteConservation(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 30 {
			return true
		}
		eng := sim.New(seed)
		n := New(eng, 4, DefaultConfig())
		want := 0.0
		finished := 0
		for i, r := range raw {
			bytes := float64(r) * 1e4
			want += bytes
			n.Send(i%4, (i+1)%4, bytes, func() { finished++ })
		}
		eng.Run()
		if finished != len(raw) {
			return false
		}
		got := n.Stats().Bytes
		return math.Abs(got-want) < float64(len(raw))*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refLink identifies a capacity constraint for refRates.
type refLink struct {
	node int
	kind uint8 // 0 = up, 1 = down, 2 = bridge
}

// refRates is the map-based water-filling recompute used before its
// scratch became dense and reusable. It returns each flow's max-min rate,
// in order, without touching the flows; the differential test holds
// recompute to it bit for bit.
func refRates(flows []*Flow, cfg Config) []float64 {
	capLeft := make(map[refLink]float64)
	members := make(map[refLink][]*Flow)
	flowLinks := make(map[*Flow][]refLink)
	var links []refLink
	for _, f := range flows {
		var ls []refLink
		if f.src == f.dst {
			ls = []refLink{{f.src, 2}}
		} else {
			ls = []refLink{{f.src, 0}, {f.dst, 1}}
		}
		flowLinks[f] = ls
		for _, l := range ls {
			if _, ok := capLeft[l]; !ok {
				if l.kind == 2 {
					capLeft[l] = cfg.BridgeBps
				} else {
					capLeft[l] = cfg.NICBps
				}
				links = append(links, l)
			}
			members[l] = append(members[l], f)
		}
	}

	frozen := make(map[*Flow]bool)
	rate := make(map[*Flow]float64)
	unfrozenOn := func(l refLink) int {
		c := 0
		for _, f := range members[l] {
			if !frozen[f] {
				c++
			}
		}
		return c
	}
	for len(frozen) < len(flows) {
		var bott refLink
		best := math.Inf(1)
		found := false
		for _, l := range links {
			k := unfrozenOn(l)
			if k == 0 {
				continue
			}
			share := capLeft[l] / float64(k)
			if share < best {
				best, bott, found = share, l, true
			}
		}
		if !found {
			break
		}
		for _, f := range members[bott] {
			if frozen[f] {
				continue
			}
			frozen[f] = true
			rate[f] = best
			for _, l := range flowLinks[f] {
				capLeft[l] -= best
				if capLeft[l] < 0 {
					capLeft[l] = 0
				}
			}
		}
	}
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = rate[f]
	}
	return out
}

// quickNetwork runs a random flow set on 1–8 nodes, bridge flows included,
// with random link capacities and arrival times, and applies check after
// every event: each arrival and each completion re-runs the water-filling.
func quickNetwork(t *testing.T, check func(n *Network) error) {
	t.Helper()
	f := func(seed int64, nodesRaw uint8, sizes []uint16) bool {
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		rng := rand.New(rand.NewSource(seed))
		nodes := int(nodesRaw%8) + 1
		cfg := Config{NICBps: 50e6 + 100e6*rng.Float64(), BridgeBps: 200e6 + 400e6*rng.Float64()}
		eng := sim.New(seed)
		n := New(eng, nodes, cfg)
		for _, sz := range sizes {
			src, dst := rng.Intn(nodes), rng.Intn(nodes)
			at := sim.Duration(rng.Int63n(int64(sim.Second)))
			eng.Schedule(at, func() { n.Send(src, dst, float64(sz)*1e3, nil) })
		}
		for eng.Step() {
			if err := check(n); err != nil {
				t.Logf("seed %d, %d nodes, t=%v: %v", seed, nodes, eng.Now(), err)
				return false
			}
		}
		return n.Active() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Differential: the dense water-filling gives every flow exactly the
// reference's rate.
func TestQuickRatesMatchReference(t *testing.T) {
	quickNetwork(t, func(n *Network) error {
		want := refRates(n.flows, n.cfg)
		for i, f := range n.flows {
			if f.Rate() != want[i] {
				return fmt.Errorf("flow %d (%d→%d): rate %v, reference %v", i, f.src, f.dst, f.Rate(), want[i])
			}
		}
		return nil
	})
}

// Property: the allocation is max-min fair. No link carries more than its
// capacity, and every flow crosses a saturated link on which no other flow
// gets more.
func TestQuickMaxMinFair(t *testing.T) {
	quickNetwork(t, func(n *Network) error {
		capOf := func(l int) float64 {
			if l%linkKinds == linkBridge {
				return n.cfg.BridgeBps
			}
			return n.cfg.NICBps
		}
		const tol = 1e-9 // relative float slack
		load := make([]float64, n.nodes*linkKinds)
		peak := make([]float64, n.nodes*linkKinds)
		for _, f := range n.flows {
			for _, l := range f.links[:f.nlinks] {
				load[l] += f.rate
				peak[l] = math.Max(peak[l], f.rate)
			}
		}
		for l, ld := range load {
			if ld > capOf(l)*(1+tol) {
				return fmt.Errorf("link %d carries %v over capacity %v", l, ld, capOf(l))
			}
		}
		for i, f := range n.flows {
			bottlenecked := false
			for _, l := range f.links[:f.nlinks] {
				if load[l] >= capOf(l)*(1-tol) && f.rate >= peak[l]*(1-tol) {
					bottlenecked = true
				}
			}
			if !bottlenecked {
				return fmt.Errorf("flow %d (%d→%d) at %v has no saturated link where it is the largest", i, f.src, f.dst, f.rate)
			}
		}
		return nil
	})
}

// sendCompleteCycle builds a network carrying 80 long flows on 4 nodes
// (bridge flows included) and returns one unit of steady-state work: a
// Send and the run to its completion, which water-fills twice.
func sendCompleteCycle() func() {
	eng, n := testNet(4)
	for i := 0; i < 80; i++ {
		n.Send(i%4, i/4%4, 1e15, nil)
	}
	fired := false
	done := func() { fired = true }
	return func() {
		fired = false
		n.Send(0, 1, 1e6, done)
		for !fired {
			eng.Step()
		}
	}
}

// BenchmarkRecompute measures the water-filling at about 80 flows.
func BenchmarkRecompute(b *testing.B) {
	cycle := sendCompleteCycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestSendCompleteSteadyStateAllocs pins the reused water-filling scratch
// and flow recycling: once warm, a Send and the run to its completion
// allocate nothing. The finished *Flow goes back to the network's
// freelist, and the completion event each Send supersedes is recycled as
// soon as it is cancelled.
func TestSendCompleteSteadyStateAllocs(t *testing.T) {
	cycle := sendCompleteCycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("Send and completion allocate %v objects, want 0", a)
	}
}

// TestRecycledFlowReportsNewTransfer pins the handle contract's other
// side: a flow recycled for a new transfer, here one started from the
// finished flow's own done callback, reports the new transfer's size,
// start time, endpoints and rate, not the old one's.
func TestRecycledFlowReportsNewTransfer(t *testing.T) {
	type view struct {
		f           *Flow
		bytes, rate float64
		start       sim.Time
		src, dst    int
	}
	eng, n := testNet(3)
	var seen []view
	n.OnFlowDone = func(f *Flow) {
		seen = append(seen, view{f, f.Bytes(), f.Rate(), f.Start(), f.Src(), f.Dst()})
	}
	var second *Flow
	first := n.Send(0, 1, 100e6, func() {
		second = n.Send(2, 2, 800e6, nil) // the bridge: 400 MB/s
	})
	eng.Run()
	if second != first {
		t.Fatal("the send from done did not reuse the finished flow")
	}
	at := sim.Time(sim.Second)
	want := []view{
		{first, 100e6, 100e6, 0, 0, 1},
		{first, 800e6, 400e6, at, 2, 2},
	}
	if !slices.Equal(seen, want) {
		t.Fatalf("OnFlowDone saw %+v, want %+v", seen, want)
	}
	if eng.Now() != at.Add(2*sim.Second) {
		t.Fatalf("second transfer finished at %v, want 3s", eng.Now())
	}
}
