package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"adaptmr/internal/sim"
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
// longer than half a sim.Time; Parse must reject each, naming the field.
// The last three are trace times within 2 s of the clock's end: they fit
// a sim.Time, but the cell's boot epoch or the job's own events then run
// past it, so the job started at once with a wait of −9.2e12 ms, or the
// run never ended.
var outOfRangeArrivals = []struct {
	name, field string
	body        []byte
}{
	{"negative trace time", "arrive_ms", probeScenario(`{"kind":"trace"}`, `[-5000]`)},
	{"jobs/rate window beyond int64 ns", "jobs/rate_per_min", probeScenario(`{"kind":"poisson","rate_per_min":1e-9}`, "")},
	{"horizon beyond int64 ns", "horizon_ms", probeScenario(`{"kind":"poisson","rate_per_min":1,"horizon_ms":9000000000000000}`, "")},
	{"negative horizon", "horizon_ms", probeScenario(`{"kind":"poisson","rate_per_min":1,"horizon_ms":-5}`, "")},
	{"trace whose run overflows the clock", "arrive_ms", probeScenario(`{"kind":"trace"}`, `[9223372035000]`)},
	{"trace whose boot epoch overflows the clock", "arrive_ms", probeScenario(`{"kind":"trace"}`, `[9223372035900]`)},
	{"trace at the clock's last millisecond", "arrive_ms", probeScenario(`{"kind":"trace"}`, `[9223372036854]`)},
}

func TestArrivalWindowValidation(t *testing.T) {
	for _, tc := range outOfRangeArrivals {
		if _, err := Parse(tc.body); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Parse error = %v, want one naming %s", tc.name, err, tc.field)
		}
	}
	// The bound is exact: maxArriveMS ms is the last window accepted.
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"trace at the bound", probeScenario(`{"kind":"trace"}`, fmt.Sprintf("[%d]", maxArriveMS)), true},
		{"trace past the bound", probeScenario(`{"kind":"trace"}`, fmt.Sprintf("[%d]", maxArriveMS+1)), false},
		{"horizon at the bound", probeScenario(fmt.Sprintf(`{"kind":"poisson","horizon_ms":%d}`, maxArriveMS), ""), true},
		{"horizon past the bound", probeScenario(fmt.Sprintf(`{"kind":"poisson","horizon_ms":%d}`, maxArriveMS+1), ""), false},
		{"jobs/rate window of 95 years", probeScenario(`{"kind":"poisson","rate_per_min":2e-8}`, ""), true},
		{"jobs/rate window of 190 years", probeScenario(`{"kind":"poisson","rate_per_min":1e-8}`, ""), false},
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

// TestArrivalAtTheBoundRuns pins the headroom the bound leaves: a job
// arriving at the bound arrives on time, waits for nothing and finishes.
func TestArrivalAtTheBoundRuns(t *testing.T) {
	s, err := Parse(probeScenario(`{"kind":"trace"}`, fmt.Sprintf("[%d]", maxArriveMS)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := Run(s, Options{Parallelism: 1, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if j := res.Jobs[0]; j.ArriveMS != maxArriveMS || j.WaitMS != 0 || j.DoneMS <= j.AdmitMS {
		t.Fatalf("job arrived at %d ms, waited %d ms, done at %d ms; want arrival at %d ms, no wait, done after",
			j.ArriveMS, j.WaitMS, j.DoneMS, maxArriveMS)
	}
}

// FuzzScenario feeds arbitrary bytes to Parse. Nothing may panic, and an
// accepted scenario of at most 256 instances (a cap that keeps a huge
// count from only allocating) expands into arrivals in [0, maxArriveMS]
// ms, which leaves half the clock for the run, each on a cell in
// [0, Cells).
func FuzzScenario(f *testing.F) {
	smoke, err := json.Marshal(SmokeScenario())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	for _, tc := range outOfRangeArrivals {
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
			if inst.arrive < 0 || inst.arrive > sim.Time(maxArriveMS*int64(sim.Millisecond)) {
				t.Fatalf("accepted scenario: %s arrives at %v", inst.id, inst.arrive)
			}
			if inst.cell < 0 || inst.cell >= s.Cells {
				t.Fatalf("accepted scenario: %s on cell %d of %d", inst.id, inst.cell, s.Cells)
			}
		}
	})
}
