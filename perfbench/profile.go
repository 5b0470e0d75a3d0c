package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// profileBudget is how long the profiled pass repeats the workload (at
// least once).
const profileBudget = 4 * time.Second

// profilePass is the traced run's first pass: the workload repeats under
// runtime/pprof CPU profiling, with heap profiles taken around it. It
// returns cpu_share.* (percent of CPU samples) and alloc_mb.* (MB
// allocated per repetition), plus the pass's repetitions for the overhead
// figure.
func profilePass(inst instance) (map[string]float64, []measured, error) {
	heap0, err := heapProfile()
	if err != nil {
		return nil, nil, err
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	reps := measure(inst, profileBudget)
	pprof.StopCPUProfile()
	heap1, err := heapProfile()
	if err != nil {
		return nil, nil, err
	}

	out := map[string]float64{}
	p, err := parseProfile(cpu.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	cpuByLayer, err := p.fold("cpu")
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	for layer, share := range shares(cpuByLayer) {
		out["cpu_share."+layer] = share
	}
	before, err := heap0.fold("alloc_space")
	if err != nil {
		return nil, nil, fmt.Errorf("heap profile: %w", err)
	}
	after, err := heap1.fold("alloc_space")
	if err != nil {
		return nil, nil, fmt.Errorf("heap profile: %w", err)
	}
	for layer, b := range after {
		out["alloc_mb."+layer] = float64(b-before[layer]) / (1 << 20) / float64(len(reps))
	}
	return out, reps, nil
}

// heapProfile returns the heap profile with every allocation so far
// published (the profile lags by up to two GC cycles).
func heapProfile() (*profile, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	return p, nil
}

// shares converts per-layer totals to percentages of their sum.
func shares(byLayer map[string]int64) map[string]float64 {
	var total int64
	for _, v := range byLayer {
		total += v
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, v := range byLayer {
		out[l] = 100 * float64(v) / float64(total)
	}
	return out
}

// layerOf charges a stack (innermost frame first) to a layer: "gc" for
// the background mark worker, else the innermost frame in
// adaptmr/internal/<layer> — so runtime callees such as map access and
// malloc count against the layer that called them — else "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	const prefix = "adaptmr/internal/"
	for _, fn := range stack {
		if !strings.HasPrefix(fn, prefix) {
			continue
		}
		pkg := fn[len(prefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
	}
	return "other"
}

// profile is the part of a decoded pprof profile the fold needs.
type profile struct {
	sampleTypes []string
	samples     []sample
}

// sample is one profile sample: its stack as function names, innermost
// (inlined callee) first, and its values in sampleTypes order.
type sample struct {
	stack  []string
	values []int64
}

// fold sums the named sample value per layer.
func (p *profile) fold(valueType string) (map[string]int64, error) {
	idx := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("no %q sample type in %v", valueType, p.sampleTypes)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if idx < len(s.values) {
			out[layerOf(s.stack)] += s.values[idx]
		}
	}
	return out, nil
}

// parseProfile decodes a (gzipped) profile.proto message: sample types,
// samples, locations, functions and the string table. Everything else is
// skipped.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → name string index
	)
	err := eachField(data, func(num int, m pbMsg) error {
		switch num {
		case 1: // sample_type
			return eachField(m.bytes, func(n int, f pbMsg) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(f.varint))
				}
				return nil
			})
		case 2: // sample
			var r rawSample
			err := eachField(m.bytes, func(n int, f pbMsg) error {
				switch n {
				case 1:
					vs, err := f.uints()
					r.locs = append(r.locs, vs...)
					return err
				case 2:
					vs, err := f.uints()
					for _, v := range vs {
						r.values = append(r.values, int64(v))
					}
					return err
				}
				return nil
			})
			raws = append(raws, r)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(m.bytes, func(n int, f pbMsg) error {
				switch n {
				case 1:
					id = f.varint
				case 4: // line
					return eachField(f.bytes, func(ln int, lf pbMsg) error {
						if ln == 1 {
							funcs = append(funcs, lf.varint)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(m.bytes, func(n int, f pbMsg) error {
				switch n {
				case 1:
					id = f.varint
				case 2:
					name = int64(f.varint)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(m.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for _, r := range raws {
		s := sample{values: r.values}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// pbMsg is one decoded protobuf field: the varint for wire type 0, the
// payload for wire type 2.
type pbMsg struct {
	wire   int
	varint uint64
	bytes  []byte
}

// uints returns a repeated integer field's values, packed or not.
func (m pbMsg) uints() ([]uint64, error) {
	if m.wire == 0 {
		return []uint64{m.varint}, nil
	}
	var out []uint64
	b := m.bytes
	for len(b) > 0 {
		v, n := readVarint(b)
		if n == 0 {
			return nil, errBadProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

var errBadProto = errors.New("malformed profile")

// eachField calls fn for every field of a protobuf message.
func eachField(b []byte, fn func(num int, m pbMsg) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			return errBadProto
		}
		b = b[n:]
		m := pbMsg{wire: int(key & 7)}
		switch m.wire {
		case 0:
			if m.varint, n = readVarint(b); n == 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			m.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(int(key>>3), m); err != nil {
			return err
		}
	}
	return nil
}

// readVarint decodes a base-128 varint, returning the value and the bytes
// consumed (0 when b is truncated or the varint is too long).
func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
