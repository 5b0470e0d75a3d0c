package experiments

import (
	"crypto/sha256"
	"strings"
	"testing"

	"adaptmr/internal/iosched"
	"adaptmr/internal/obs"
)

// The experiment tests run the Quick configuration: a 2×2 cluster with
// reduced data. They assert structural invariants and the paper's
// qualitative orderings that survive downscaling; full-shape checks run in
// the benchmark harness / paperbench.

func TestQuickConfigSane(t *testing.T) {
	cfg := Quick()
	if !cfg.Quick || cfg.Cluster.Hosts != 2 || len(cfg.Pairs) == 0 {
		t.Fatalf("quick config: %+v", cfg)
	}
	if Default().Cluster.Host.Disk.Sectors <= 0 {
		t.Fatal("default disk")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:    "demo",
		Unit:     "s",
		ColHeads: []string{"a", "b"},
		RowHeads: []string{"x"},
		Cells:    [][]float64{{1.5, 2.5}},
		Notes:    []string{"hello"},
	}
	s := tb.Render()
	for _, want := range []string{"demo", "[s]", "a", "x", "1.5", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	cfg := Quick()
	r := Fig1(cfg)
	if len(r.Elapsed) != 3 || len(r.Elapsed[0]) != len(cfg.Pairs) {
		t.Fatalf("shape %dx%d", len(r.Elapsed), len(r.Elapsed[0]))
	}
	for i := range r.Elapsed {
		for j, v := range r.Elapsed[i] {
			if v <= 0 {
				t.Fatalf("elapsed[%d][%d] = %v", i, j, v)
			}
		}
	}
	// Consolidation slows things down, superlinearly at 3 VMs.
	if r.SlowdownVs1VM(2) <= 1.3 {
		t.Fatalf("2-VM slowdown %v, want > 1.3", r.SlowdownVs1VM(2))
	}
	if r.SlowdownVs1VM(3) <= r.SlowdownVs1VM(2) {
		t.Fatalf("slowdown not increasing: %v vs %v", r.SlowdownVs1VM(3), r.SlowdownVs1VM(2))
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig2Shape(t *testing.T) {
	cfg := Quick()
	r := Fig2(cfg)
	if len(r.Benchmarks) != 3 {
		t.Fatalf("benchmarks %v", r.Benchmarks)
	}
	// Sort (heavy disk) must vary more across pairs than wordcount
	// (CPU-bound) — the paper's central observation from Fig 2.
	if r.Variation("sort", false) <= r.Variation("wordcount", false) {
		t.Fatalf("variation: sort %.2f <= wordcount %.2f",
			r.Variation("sort", false), r.Variation("wordcount", false))
	}
	// Excluding Noop-in-VMM shrinks the variation.
	if r.Variation("sort", true) >= r.Variation("sort", false) {
		t.Fatal("excluding noop did not shrink variation")
	}
	// The default pair is not the best for sort.
	best, bt := r.Best("sort")
	if best == iosched.DefaultPair {
		t.Fatal("default pair is optimal for sort — contradicts the paper")
	}
	if bt >= r.DefaultTime("sort") {
		t.Fatal("best not better than default")
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestTable1Shape(t *testing.T) {
	cfg := Quick()
	r := Table1(cfg)
	if len(r.Seconds) != 4 || len(r.Seconds[0]) != 4 {
		t.Fatal("not a 4x4 matrix")
	}
	// Noop in the VMM is the catastrophic column.
	noop := r.ColumnMean(iosched.Noop)
	for _, vmm := range []string{iosched.CFQ, iosched.Deadline, iosched.Anticipatory} {
		if r.ColumnMean(vmm) >= noop {
			t.Fatalf("VMM %s column (%.1f) not better than noop (%.1f)", vmm, r.ColumnMean(vmm), noop)
		}
	}
	vmm, _, best := r.Best()
	if vmm == iosched.Noop {
		t.Fatal("best cell in the noop column")
	}
	if best >= r.Default() {
		t.Fatal("no cell beats the default — contradicts the paper")
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFig3Shape(t *testing.T) {
	cfg := Quick()
	r := Fig3(cfg)
	if len(r.Pairs) != 2 {
		t.Fatalf("pairs %v", r.Pairs)
	}
	for i := range r.Pairs {
		if len(r.VMMCDF[i]) == 0 || len(r.VMCDF[i]) == 0 {
			t.Fatalf("empty CDF for %v", r.Pairs[i])
		}
		if r.VMMMean[i] <= 0 || r.VMMean[i] <= 0 {
			t.Fatalf("zero throughput for %v", r.Pairs[i])
		}
		// VMM aggregate throughput exceeds a single VM's average.
		if r.VMMMean[i] <= r.VMMean[i] {
			t.Fatalf("VMM mean %.1f <= VM mean %.1f", r.VMMMean[i], r.VMMean[i])
		}
		if len(r.PerVMMean[i]) != cfg.Cluster.VMsPerHost {
			t.Fatalf("per-VM means %v", r.PerVMMean[i])
		}
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFig4Shape(t *testing.T) {
	cfg := Quick()
	r := Fig4(cfg)
	if len(r.Fractions) != 8 {
		t.Fatalf("fractions %v", r.Fractions)
	}
	for i := range r.Pairs {
		for k := 1; k < len(r.Fractions); k++ {
			if r.TimeAt[i][k] < r.TimeAt[i][k-1] {
				t.Fatalf("pair %v checkpoint times not monotone", r.Pairs[i])
			}
		}
	}
	// The composed optimum can be no slower than any single pair.
	final := r.ComposedOptimal[len(r.ComposedOptimal)-1]
	for i := range r.Pairs {
		if final > r.TimeAt[i][len(r.Fractions)-1]+1e-9 {
			t.Fatalf("composed optimum %v slower than pair %v", final, r.Pairs[i])
		}
	}
	if r.OptimalImprovementOverDefault() < 0 {
		t.Fatal("negative composed improvement")
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestTable2Shape(t *testing.T) {
	cfg := Quick()
	r := Table2(cfg)
	if len(r.Waves) != len(r.Percent) || len(r.Waves) == 0 {
		t.Fatalf("shape %v %v", r.Waves, r.Percent)
	}
	// The 1-wave share must clearly exceed the many-wave share.
	if r.Percent[0] <= r.Percent[len(r.Percent)-1] {
		t.Fatalf("non-concurrent shuffle not decreasing: %v", r.Percent)
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("dd matrix is slow")
	}
	cfg := Quick()
	cfg.Pairs = cfg.Pairs[:3] // 3x3 matrix keeps the test quick
	r := Fig5(cfg)
	if len(r.Cost) != 3 || len(r.Cost[0]) != 3 {
		t.Fatal("matrix shape")
	}
	if r.SelfCostMean() <= 0 {
		t.Fatalf("self-switch cost %v, want positive (drain + stall)", r.SelfCostMean())
	}
	if r.MaxCost() <= r.MinCost() {
		t.Fatal("degenerate cost range")
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFig6Shape(t *testing.T) {
	cfg := Quick()
	r, err := Fig6(cfg)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(r.Profiles) != len(cfg.Pairs) {
		t.Fatalf("profiles %d", len(r.Profiles))
	}
	b0, b1 := r.BestFor(0), r.BestFor(1)
	if b0.Total <= 0 || b1.Total <= 0 {
		t.Fatal("zero profiles")
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFig7aShape(t *testing.T) {
	cfg := Quick()
	r, err := Fig7a(cfg)
	if err != nil {
		t.Fatalf("Fig7a: %v", err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Adaptive <= 0 || row.Default <= 0 {
			t.Fatalf("row %+v", row)
		}
		// The fallback guarantee: adaptive never loses to the references.
		if row.Adaptive > row.BestOne+1e-9 || row.Adaptive > row.Default+1e-9 {
			t.Fatalf("adaptive slower than references: %+v", row)
		}
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFig7bcdShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heuristic sweeps are slow")
	}
	cfg := Quick()
	figs := map[string]func(Config) (Fig7Result, error){
		"7b": Fig7b, "7c": Fig7c, "7d": Fig7d,
	}
	for name, fig := range figs {
		r, err := fig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Rows) < 2 {
			t.Fatalf("%s rows %d", name, len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.ImprovementOverDefault() < -1e-9 {
				t.Fatalf("%s: adaptive worse than default: %+v", name, row)
			}
		}
		if len(r.ImprovementTrend()) != len(r.Rows) {
			t.Fatalf("%s trend length", name)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := Quick()
	r, err := Fig8(cfg)
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if len(r.Benchmarks) != 3 {
		t.Fatalf("benchmarks %v", r.Benchmarks)
	}
	// Sort's reduce phase is substantial; wordcount's is comparatively
	// small (the paper's Fig 8 contrast).
	byName := map[string][]float64{}
	for i, b := range r.Benchmarks {
		byName[b] = r.Seconds[i]
	}
	wcReduceShare := byName["wordcount"][2] / (byName["wordcount"][0] + byName["wordcount"][2])
	sortReduceShare := byName["sort"][2] / (byName["sort"][0] + byName["sort"][2])
	if sortReduceShare <= wcReduceShare {
		t.Fatalf("reduce share: sort %.2f <= wordcount %.2f", sortReduceShare, wcReduceShare)
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

// TestRenderIdenticalUnderParallelism pins the sweep-parallelism
// guarantee at the experiments layer: rendered artefacts are
// byte-identical at every worker count. (The All banner carries wall-clock
// timings, so the comparison is on the artefact renders themselves.)
func TestRenderIdenticalUnderParallelism(t *testing.T) {
	render := func(par int) string {
		cfg := Quick()
		cfg.Parallelism = par
		var sb strings.Builder
		sb.WriteString(Fig2(cfg).Render())
		sb.WriteString(Table2(cfg).Render())
		f8, err := Fig8(cfg)
		if err != nil {
			t.Fatalf("Fig8(parallelism=%d): %v", par, err)
		}
		sb.WriteString(f8.Render())
		return sb.String()
	}
	serial := render(1)
	for _, par := range []int{4, 8} {
		if got := render(par); got != serial {
			t.Fatalf("parallelism %d rendered different artefacts", par)
		}
	}
}

// TestObservedSweepIdenticalUnderParallelism pins parDo's serial rule:
// with a tracer and a registry attached, Fig 2 and Fig 3 record into the
// shared sinks as they run, so their trace and metrics bytes must not
// depend on the worker count. Under -race a sweep that ran these cells
// concurrently also trips the detector on the shared sinks. Two pairs at
// 64 MB per VM keep the traces small; Fig 2 still has six cells.
func TestObservedSweepIdenticalUnderParallelism(t *testing.T) {
	observe := func(par int) (trace, metrics [sha256.Size]byte) {
		cfg := Quick()
		cfg.Parallelism = par
		cfg.Pairs = cfg.Pairs[:2]
		cfg.InputPerVM = 64 << 20
		tr, reg := obs.NewTracer(), obs.NewRegistry()
		cfg.Cluster.Obs.Trace, cfg.Cluster.Obs.Metrics = tr, reg
		Fig2(cfg)
		Fig3(cfg)
		th, mh := sha256.New(), sha256.New()
		if err := tr.WriteJSON(th); err != nil {
			t.Fatalf("trace: %v", err)
		}
		if err := reg.Snapshot().WriteJSON(mh); err != nil {
			t.Fatalf("metrics: %v", err)
		}
		copy(trace[:], th.Sum(nil))
		copy(metrics[:], mh.Sum(nil))
		return trace, metrics
	}
	trace1, metrics1 := observe(1)
	trace4, metrics4 := observe(4)
	if trace4 != trace1 {
		t.Error("parallelism 4 wrote a different trace than parallelism 1")
	}
	if metrics4 != metrics1 {
		t.Error("parallelism 4 wrote a different metrics snapshot than parallelism 1")
	}
}

func TestSuiteAndAll(t *testing.T) {
	entries := Suite()
	if len(entries) != 13 {
		t.Fatalf("suite size %d", len(entries))
	}
	ids := map[string]bool{}
	for _, e := range entries {
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	var sb strings.Builder
	if err := All(Quick(), &sb, "", "fig8"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig 8") {
		t.Fatalf("All output:\n%s", sb.String())
	}
}
