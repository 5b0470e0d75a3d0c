package experiments

import (
	"fmt"
	"sort"
	"strings"

	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
	"adaptmr/internal/workloads"
)

// Fig3Result reproduces Fig 3: CDFs of the I/O throughput observed in the
// VMM (Dom0 request queue of one physical machine) and in its VMs (average
// across the VMs) while sort runs under (CFQ, CFQ) and (Anticipatory,
// Deadline).
type Fig3Result struct {
	Pairs []iosched.Pair
	// VMMCDF[pair] is the CDF of Dom0-level MB/s samples.
	VMMCDF [][]CDFPoint
	// VMCDF[pair] is the CDF of per-VM MB/s samples pooled over the VMs.
	VMCDF [][]CDFPoint
	// Summary numbers (paper quotes max and mean for each level).
	VMMMax, VMMMean []float64
	VMMean, VMMaxes []float64
	// PerVMMean[pair][vm] shows the fairness spread the paper discusses.
	PerVMMean [][]float64
}

// Fig3 attaches one analyze.Sampler to host 0's Dom0 queue (level "dom0")
// and to each of its guest queues (one level per VM) during a sort run,
// and reads every level's throughput in the paper's 1-second buckets.
func Fig3(cfg Config) Fig3Result {
	pairs := []iosched.Pair{
		{VMM: iosched.CFQ, VM: iosched.CFQ},
		{VMM: iosched.Anticipatory, VM: iosched.Deadline},
	}
	bm := workloads.Sort(cfg.InputPerVM)
	res := Fig3Result{
		Pairs:     pairs,
		VMMCDF:    make([][]CDFPoint, len(pairs)),
		VMCDF:     make([][]CDFPoint, len(pairs)),
		VMMMax:    make([]float64, len(pairs)),
		VMMMean:   make([]float64, len(pairs)),
		VMMean:    make([]float64, len(pairs)),
		VMMaxes:   make([]float64, len(pairs)),
		PerVMMean: make([][]float64, len(pairs)),
	}
	// The two instrumented runs are independent clusters, so they execute
	// on the worker pool.
	parDo(cfg, len(pairs), func(i int) {
		smp := analyze.NewSampler()
		var vms []string
		var eng *sim.Engine
		var start sim.Time
		runPair(cfg, bm, pairs[i], func(cl *cluster.Cluster) {
			host := cl.Hosts[0]
			smp.AttachQueue(host.Dom0Queue(), "dom0")
			for _, d := range host.Domains() {
				vm := fmt.Sprintf("vm%d", d.Index)
				smp.AttachQueue(d.Queue(), vm)
				vms = append(vms, vm)
			}
			eng, start = cl.Eng, cl.Eng.Now()
		})
		ts := smp.Finalize(start, eng.Now(), sim.Second)

		vmm := ts.ThroughputMBps["dom0"]
		res.VMMCDF[i] = CDF(vmm)
		res.VMMMax[i] = Max(vmm)
		res.VMMMean[i] = Mean(vmm)

		var pooled []float64
		var perVM []float64
		for _, vm := range vms {
			series := ts.ThroughputMBps[vm]
			pooled = append(pooled, series...)
			perVM = append(perVM, Mean(series))
		}
		res.VMCDF[i] = CDF(pooled)
		res.VMMean[i] = Mean(pooled)
		res.VMMaxes[i] = Max(pooled)
		res.PerVMMean[i] = perVM
	})
	return res
}

// FairnessSpread returns max-min of per-VM mean throughput for a pair
// index — the paper observes (CFQ, CFQ) has the tighter spread.
func (r Fig3Result) FairnessSpread(i int) float64 {
	return Max(r.PerVMMean[i]) - Min(r.PerVMMean[i])
}

// Render formats the summary and decile tables of both CDFs.
func (r Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 3: CDF of I/O throughput in VMM and VMs (sort)\n")
	for i, p := range r.Pairs {
		fmt.Fprintf(&b, "  %s: VMM mean %.1f MB/s max %.1f | VM mean %.2f MB/s max %.2f | per-VM means",
			p, r.VMMMean[i], r.VMMMax[i], r.VMMean[i], r.VMMaxes[i])
		for _, v := range r.PerVMMean[i] {
			fmt.Fprintf(&b, " %.2f", v)
		}
		fmt.Fprintf(&b, " (spread %.2f)\n", r.FairnessSpread(i))
	}
	b.WriteString("  VMM throughput deciles [MB/s]:\n")
	for i, p := range r.Pairs {
		fmt.Fprintf(&b, "    %-22s", p.String())
		for q := 10.0; q <= 90; q += 10 {
			fmt.Fprintf(&b, "%7.1f", percentileOfCDF(r.VMMCDF[i], q))
		}
		b.WriteString("\n")
	}
	b.WriteString("  VM throughput deciles [MB/s]:\n")
	for i, p := range r.Pairs {
		fmt.Fprintf(&b, "    %-22s", p.String())
		for q := 10.0; q <= 90; q += 10 {
			fmt.Fprintf(&b, "%7.1f", percentileOfCDF(r.VMCDF[i], q))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// percentileOfCDF inverts an empirical CDF at fraction q/100.
func percentileOfCDF(cdf []CDFPoint, q float64) float64 {
	f := q / 100
	for _, p := range cdf {
		if p.Fraction >= f {
			return p.Value
		}
	}
	if len(cdf) > 0 {
		return cdf[len(cdf)-1].Value
	}
	return 0
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64 // P(X <= Value)
}

// CDF returns the empirical cumulative distribution of xs.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	out := make([]CDFPoint, 0, len(ys))
	n := float64(len(ys))
	for i, v := range ys {
		// Collapse runs of equal values into the final step.
		if i+1 < len(ys) && ys[i+1] == v {
			continue
		}
		out = append(out, CDFPoint{Value: v, Fraction: float64(i+1) / n})
	}
	return out
}
