package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"adaptmr"
)

// testSuite returns a fresh three-workload suite shaped like the
// committed gate baseline.
func testSuite() []adaptmr.Bench {
	entry := func(workload string, makespan float64) adaptmr.Bench {
		return adaptmr.Bench{
			Schema: "adaptmr-bench/v2", Workload: workload,
			Hosts: 2, VMs: 2, InputMB: 64, Seed: 1, Pair: "cc",
			MakespanS: makespan,
			PhaseS:    map[string]float64{"map": makespan / 2, "reduce": makespan / 2},
		}
	}
	return []adaptmr.Bench{entry("sort", 6.2), entry("fleet:fleet-smoke", 65.4), entry("online:sort", 6.25)}
}

func TestCompareSuitesIdenticalPassInAnyOrder(t *testing.T) {
	s := testSuite()
	for _, cand := range [][]adaptmr.Bench{s, {s[2], s[0], s[1]}, {s[1], s[2], s[0]}} {
		var out bytes.Buffer
		regressed, err := compareSuites(&out, testSuite(), cand, "")
		if err != nil {
			t.Fatal(err)
		}
		if regressed {
			t.Fatalf("identical suite regressed:\n%s", out.String())
		}
		if n := strings.Count(out.String(), "PASS:"); n != len(s) {
			t.Fatalf("got %d PASS tables, want %d:\n%s", n, len(s), out.String())
		}
	}
}

func TestCompareSuitesRegressionInAnyEntryFails(t *testing.T) {
	for i := range testSuite() {
		cand := testSuite()
		cand[i].MakespanS *= 1.2
		regressed, err := compareSuites(io.Discard, testSuite(), cand, "")
		if err != nil {
			t.Fatal(err)
		}
		if !regressed {
			t.Errorf("%s: 20%% slower makespan passed the gate", cand[i].Workload)
		}
	}
}

func TestCompareSuitesWorkloadMismatchIsNamed(t *testing.T) {
	s := testSuite()
	cases := []struct {
		name       string
		base, cand []adaptmr.Bench
		workload   string
	}{
		{"missing from candidate", s, s[:2], "online:sort"},
		{"missing from baseline", s[:2], s, "online:sort"},
		{"listed twice in candidate", s, append(testSuite(), s[1]), "fleet:fleet-smoke"},
		{"listed twice in baseline", append(testSuite(), s[0]), s, "sort"},
	}
	for _, tc := range cases {
		_, err := compareSuites(io.Discard, tc.base, tc.cand, "")
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.workload)) {
			t.Errorf("%s: got error %v, want one naming %q", tc.name, err, tc.workload)
		}
	}
}

// TestCompareSuitesWritesEveryTable pins that the -o artifact records the
// verdict of every workload, as text and as JSON keyed by workload.
func TestCompareSuitesWritesEveryTable(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "compare.txt")
	if _, err := compareSuites(io.Discard, testSuite(), testSuite(), txt); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	js := filepath.Join(dir, "compare.json")
	if _, err := compareSuites(io.Discard, testSuite(), testSuite(), js); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var tables map[string]adaptmr.Comparison
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(testSuite()) {
		t.Fatalf("JSON holds %d tables, want %d", len(tables), len(testSuite()))
	}
	for _, b := range testSuite() {
		if !strings.Contains(string(text), "workload "+b.Workload+":\n") {
			t.Errorf("text artifact lacks the %s table:\n%s", b.Workload, text)
		}
		if len(tables[b.Workload].Deltas) == 0 {
			t.Errorf("JSON artifact lacks the %s table", b.Workload)
		}
	}
}
