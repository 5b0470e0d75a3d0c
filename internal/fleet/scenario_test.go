package fleet

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// probeScenario is the JSON of a 1 cell × 1 host × 1 VM scenario with one
// 8 MB sort, under the given arrivals object and job arrive_ms list.
func probeScenario(arrivals, arriveMS string) []byte {
	job := `{"benchmark":"sort","input_per_vm_mb":8`
	if arriveMS != "" {
		job += `,"arrive_ms":` + arriveMS
	}
	return []byte(fmt.Sprintf(`{"name":"probe","seed":1,"hosts_per_cell":1,"vms_per_host":1,"arrivals":%s,"jobs":[%s}]}`, arrivals, job))
}

// outOfRangeArrivals are scenarios whose arrival window is negative or
// longer than a sim.Time holds; Parse must reject each, naming the field.
var outOfRangeArrivals = []struct {
	name, field string
	body        []byte
}{
	{"negative trace time", "arrive_ms", probeScenario(`{"kind":"trace"}`, `[-5000]`)},
	{"jobs/rate window beyond int64 ns", "jobs/rate_per_min", probeScenario(`{"kind":"poisson","rate_per_min":1e-9}`, "")},
	{"horizon beyond int64 ns", "horizon_ms", probeScenario(`{"kind":"poisson","rate_per_min":1,"horizon_ms":9000000000000000}`, "")},
	{"negative horizon", "horizon_ms", probeScenario(`{"kind":"poisson","rate_per_min":1,"horizon_ms":-5}`, "")},
}

func TestArrivalWindowValidation(t *testing.T) {
	for _, tc := range outOfRangeArrivals {
		if _, err := Parse(tc.body); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Parse error = %v, want one naming %s", tc.name, err, tc.field)
		}
	}
	// The bound is exact: maxArriveMS ms is the last window int64
	// nanoseconds hold.
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"trace at the bound", probeScenario(`{"kind":"trace"}`, fmt.Sprintf("[%d]", maxArriveMS)), true},
		{"trace past the bound", probeScenario(`{"kind":"trace"}`, fmt.Sprintf("[%d]", maxArriveMS+1)), false},
		{"horizon at the bound", probeScenario(fmt.Sprintf(`{"kind":"poisson","horizon_ms":%d}`, maxArriveMS), ""), true},
		{"horizon past the bound", probeScenario(fmt.Sprintf(`{"kind":"poisson","horizon_ms":%d}`, maxArriveMS+1), ""), false},
		{"jobs/rate window of 190 years", probeScenario(`{"kind":"poisson","rate_per_min":1e-8}`, ""), true},
	} {
		s, err := Parse(tc.body)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Parse error = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil {
			continue
		}
		for _, inst := range s.expand() {
			if inst.arrive < 0 {
				t.Errorf("%s: %s arrives at %v", tc.name, inst.id, inst.arrive)
			}
		}
	}
}

// FuzzScenario feeds arbitrary bytes to Parse. Nothing may panic, and an
// accepted scenario of at most 256 instances (a cap that keeps a huge
// count from only allocating) expands into arrivals at or after time
// zero, each on a cell in [0, Cells).
func FuzzScenario(f *testing.F) {
	smoke, err := json.Marshal(SmokeScenario())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	for _, tc := range outOfRangeArrivals[:3] {
		f.Add(tc.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		n := 0
		for _, j := range s.Jobs {
			if n += j.Count; j.Count > 256 || n > 256 {
				return
			}
		}
		for _, inst := range s.expand() {
			if inst.arrive < 0 {
				t.Fatalf("accepted scenario: %s arrives at %v", inst.id, inst.arrive)
			}
			if inst.cell < 0 || inst.cell >= s.Cells {
				t.Fatalf("accepted scenario: %s on cell %d of %d", inst.id, inst.cell, s.Cells)
			}
		}
	})
}
