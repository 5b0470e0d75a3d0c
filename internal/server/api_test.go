package server

import (
	"strings"
	"testing"
	"time"

	"adaptmr"
)

func TestBuildClusterDefaultsAndBounds(t *testing.T) {
	cfg, err := buildCluster(ClusterSpec{})
	if err != nil {
		t.Fatal(err)
	}
	def := adaptmr.DefaultClusterConfig()
	if cfg.Hosts != def.Hosts || cfg.VMsPerHost != def.VMsPerHost || cfg.Seed != def.Seed {
		t.Errorf("zero spec did not take defaults: %d×%d seed %d", cfg.Hosts, cfg.VMsPerHost, cfg.Seed)
	}

	cfg, err = buildCluster(ClusterSpec{Hosts: 2, VMsPerHost: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hosts != 2 || cfg.VMsPerHost != 3 || cfg.Seed != 9 {
		t.Errorf("explicit spec not applied: %d×%d seed %d", cfg.Hosts, cfg.VMsPerHost, cfg.Seed)
	}

	for _, bad := range []ClusterSpec{
		{Hosts: -1},
		{Hosts: maxHosts + 1},
		{VMsPerHost: maxVMsPerHost + 1},
		{Hosts: 64, VMsPerHost: 64}, // 4096 domains > maxDomains
	} {
		if _, err := buildCluster(bad); err == nil {
			t.Errorf("buildCluster(%+v) accepted", bad)
		}
	}
}

func TestBuildJobBenchesAndBounds(t *testing.T) {
	job, err := buildJob(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	want := adaptmr.SortBenchmark(512 << 20).Job
	if job.Name != want.Name || job.InputPerVM != want.InputPerVM {
		t.Errorf("zero spec = %q/%d, want 512 MB sort", job.Name, job.InputPerVM)
	}
	for _, bench := range []string{"sort", "wordcount", "wordcount-nc", "wordcount-no-combiner"} {
		if _, err := buildJob(JobSpec{Bench: bench, InputMB: 64}); err != nil {
			t.Errorf("buildJob(%q): %v", bench, err)
		}
	}
	for _, bad := range []JobSpec{{Bench: "teragen"}, {InputMB: -1}, {InputMB: maxInputMB + 1}} {
		if _, err := buildJob(bad); err == nil {
			t.Errorf("buildJob(%+v) accepted", bad)
		}
	}
}

func TestBuildPlanShapes(t *testing.T) {
	two, _ := buildScheme(0)
	three, _ := buildScheme(3)

	p, err := buildPlan(two, []string{"ad"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pairs) != 2 || p.Pairs[0] != p.Pairs[1] {
		t.Errorf("single code should broadcast uniformly: %v", p.Pairs)
	}
	p, err = buildPlan(three, []string{"ad", "cc", "dd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pairs) != 3 {
		t.Errorf("explicit three-phase plan: %v", p.Pairs)
	}
	if _, err := buildPlan(two, []string{"ad", "cc", "dd"}); err == nil {
		t.Error("3 pairs against 2 phases accepted")
	}
	if _, err := buildPlan(two, nil); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := buildPlan(two, []string{"zz"}); err == nil {
		t.Error("unknown pair code accepted")
	}
	if _, err := buildScheme(4); err == nil {
		t.Error("4-phase scheme accepted")
	}
}

func TestTimeoutForClamping(t *testing.T) {
	def := 10 * time.Second
	if d, err := timeoutFor(0, def); err != nil || d != def {
		t.Errorf("timeoutFor(0) = %v, %v", d, err)
	}
	if d, err := timeoutFor(250, def); err != nil || d != 250*time.Millisecond {
		t.Errorf("timeoutFor(250) = %v, %v", d, err)
	}
	if d, err := timeoutFor(3_600_000, def); err != nil || d != def {
		t.Errorf("timeoutFor(1h) = %v, %v (want clamp to %v)", d, err, def)
	}
	// Converted to a Duration first, these wrap to 448µs and to a
	// negative value; both must clamp like any other huge value.
	for _, ms := range []int64{18446744073710, 9300000000000} {
		if d, err := timeoutFor(ms, def); err != nil || d != def {
			t.Errorf("timeoutFor(%d) = %v, %v (want clamp to %v)", ms, d, err, def)
		}
	}
	if _, err := timeoutFor(-5, def); err == nil {
		t.Error("negative timeout accepted")
	}
}

// Coalescing keys must separate everything that changes the answer and
// merge everything that does not.
func TestCoalescingKeys(t *testing.T) {
	cfg, err := buildCluster(ClusterSpec{Hosts: 2, VMsPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := buildJob(JobSpec{Bench: "sort", InputMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	two, _ := buildScheme(2)

	planCC, _ := buildPlan(two, []string{"cc"})
	planCC2, _ := buildPlan(two, []string{"cc", "cc"}) // same normalised plan
	planAD, _ := buildPlan(two, []string{"ad", "cc"})

	k1, err := runKey(cfg, job, planCC)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := runKey(cfg, job, planCC2)
	k3, _ := runKey(cfg, job, planAD)
	if k1 != k2 {
		t.Error("equivalent normalised plans produced different run keys")
	}
	if k1 == k3 {
		t.Error("different plans share a run key")
	}
	if !strings.HasPrefix(k1, "run:") {
		t.Errorf("run key missing endpoint prefix: %q", k1)
	}

	otherCfg := cfg
	otherCfg.Seed = 7
	if k, _ := runKey(otherCfg, job, planCC); k == k1 {
		t.Error("different seeds share a run key")
	}

	cands, _ := buildCandidates([]string{"cc", "ad"})
	three, _ := buildScheme(3)
	t1, err := tuneKey("tune", cfg, job, two, cands)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := tuneKey("tune", cfg, job, two, nil)
	t3, _ := tuneKey("tune", cfg, job, three, cands)
	t4, _ := tuneKey("bruteforce", cfg, job, two, cands)
	if t1 == t2 || t1 == t3 || t1 == t4 {
		t.Errorf("tune keys failed to separate candidates/scheme/endpoint:\n%s\n%s\n%s\n%s", t1, t2, t3, t4)
	}
	if again, _ := tuneKey("tune", cfg, job, two, cands); again != t1 {
		t.Error("tune key is not deterministic")
	}
}
