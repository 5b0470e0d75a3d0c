package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// pb is a minimal protobuf encoder for canned profiles.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (b pb) uint(num int, v uint64) pb { return b.varint(uint64(num) << 3).varint(v) }

func (b pb) msg(num int, p []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(p))), p...)
}

// cannedProfile builds a CPU profile whose samples exercise every rule
// of layerOf. Each stack lists function names innermost first; a name
// group joined by "+" is one location with inlined frames.
func cannedProfile(t *testing.T) []byte {
	t.Helper()
	stacks := []struct {
		frames [][]string
		ns     uint64
	}{
		// runtime malloc under netsim, called from core: netsim.
		{[][]string{{"runtime.mallocgc"}, {"adaptmr/internal/netsim.(*Network).recompute"}, {"adaptmr/internal/core.(*Runner).execute"}}, 40},
		// background mark worker: gc.
		{[][]string{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}}, 10},
		// no adaptmr/internal frame at all: other.
		{[][]string{{"syscall.Syscall"}, {"net/http.(*conn).serve"}}, 20},
		// map access inlined into an iosched method, called from block.
		{[][]string{{"runtime.mapaccess2", "adaptmr/internal/iosched.(*cfq).Dispatch"}, {"adaptmr/internal/block.(*Queue).kick"}}, 25},
		// a sub-package counts as its parent layer.
		{[][]string{{"adaptmr/internal/obs/perfstat.Start"}}, 5},
		// internal packages that are not layers are skipped.
		{[][]string{{"adaptmr/internal/workloads.Sort"}, {"adaptmr.Run"}}, 15},
	}
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	p = p.msg(1, pb{}.uint(1, str("samples")).uint(2, str("count")))
	p = p.msg(1, pb{}.uint(1, str("cpu")).uint(2, str("nanoseconds")))
	funcs := map[string]uint64{}
	var nextLoc uint64
	for i, s := range stacks {
		var locIDs pb
		for _, group := range s.frames {
			nextLoc++
			loc := pb{}.uint(1, nextLoc)
			for _, fn := range group {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					p = p.msg(5, pb{}.uint(1, id).uint(2, str(fn)))
				}
				loc = loc.msg(4, pb{}.uint(1, id).uint(2, 1))
			}
			p = p.msg(4, loc)
			locIDs = locIDs.varint(nextLoc)
		}
		var sample pb
		if i%2 == 0 { // packed repeated fields
			sample = sample.msg(1, locIDs).msg(2, pb{}.varint(1).varint(s.ns))
		} else { // one field per element
			for b := []byte(locIDs); len(b) > 0; {
				v, n := readVarint(b)
				sample = sample.uint(1, v)
				b = b[n:]
			}
			sample = sample.uint(2, 1).uint(2, s.ns)
		}
		p = p.msg(2, sample)
	}
	for _, s := range strs {
		p = p.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldCannedProfile(t *testing.T) {
	p, err := parseProfile(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	byLayer, err := p.fold("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"netsim": 40, "gc": 10, "other": 35, "iosched": 25, "obs": 5}
	if len(byLayer) != len(want) {
		t.Fatalf("fold = %v, want %v", byLayer, want)
	}
	for l, v := range want {
		if byLayer[l] != v {
			t.Errorf("fold[%s] = %d, want %d (all: %v)", l, byLayer[l], v, byLayer)
		}
	}
	var sum float64
	for _, s := range shares(byLayer) {
		sum += s
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
	if _, err := p.fold("alloc_space"); err == nil {
		t.Error("fold of a missing sample type succeeded")
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	var p pb
	p = p.msg(6, []byte("cpu"))
	if _, err := parseProfile(p[:len(p)-1]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json at the repository
// root in step with the metrics this program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayer)
}
