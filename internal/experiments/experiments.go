// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated testbed. Each Fig*/Table* function returns a
// typed result with a Render method producing an aligned text table; the
// All function (used by cmd/paperbench) runs the complete set.
//
// The Quick configuration shrinks data sizes and candidate sets so the
// whole suite also runs as Go benchmarks in reasonable time; the paper
// configuration reproduces the full sweeps.
package experiments

import (
	"fmt"
	"strings"

	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
)

// Config parameterises every experiment.
type Config struct {
	// Cluster is the base testbed (paper: 4 hosts × 4 VMs).
	Cluster cluster.Config
	// InputPerVM is the default per-datanode input (paper: 512 MB).
	InputPerVM int64
	// Pairs are the candidate scheduler pairs (paper: all 16).
	Pairs []iosched.Pair
	// Quick shrinks workloads for tests and benchmarks.
	Quick bool
	// Parallelism is the worker count for independent sweep cells and for
	// the evaluation pool of Runner-based experiments. <= 0 means
	// GOMAXPROCS. Rendered outputs are identical at every setting.
	Parallelism int
}

// Default returns the paper's experimental configuration.
func Default() Config {
	return Config{
		Cluster:    cluster.DefaultConfig(),
		InputPerVM: 512 << 20,
		Pairs:      iosched.AllPairs(),
	}
}

// Quick returns a scaled-down configuration: a 2×2 cluster, 96 MB per VM,
// and a 6-pair candidate set covering every scheduler on each axis.
func Quick() Config {
	cc := cluster.DefaultConfig()
	cc.Hosts = 2
	cc.VMsPerHost = 2
	return Config{
		Cluster:    cc,
		InputPerVM: 96 << 20,
		Pairs: []iosched.Pair{
			{VMM: iosched.CFQ, VM: iosched.CFQ},
			{VMM: iosched.Anticipatory, VM: iosched.Deadline},
			{VMM: iosched.Anticipatory, VM: iosched.CFQ},
			{VMM: iosched.Deadline, VM: iosched.Deadline},
			{VMM: iosched.Noop, VM: iosched.CFQ},
			{VMM: iosched.CFQ, VM: iosched.Noop},
		},
		Quick: true,
	}
}

// Table is a generic labelled grid used by the renderers.
type Table struct {
	Title    string
	Unit     string
	ColHeads []string
	RowHeads []string
	Cells    [][]float64
	Notes    []string
}

// Render produces an aligned text table.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteString("\n")
	width := 12
	for _, h := range append([]string{}, t.RowHeads...) {
		if len(h)+2 > width {
			width = len(h) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", width, "")
	for _, h := range t.ColHeads {
		fmt.Fprintf(&b, "%12s", h)
	}
	b.WriteString("\n")
	for i, rh := range t.RowHeads {
		fmt.Fprintf(&b, "%-*s", width, rh)
		for j := range t.ColHeads {
			v := 0.0
			if i < len(t.Cells) && j < len(t.Cells[i]) {
				v = t.Cells[i][j]
			}
			fmt.Fprintf(&b, "%12.1f", v)
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// pairCodes renders pair codes as column/row heads.
func pairCodes(pairs []iosched.Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.Code()
	}
	return out
}
