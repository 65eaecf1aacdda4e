package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Series is one line in a figure: a label with X/Y points.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a regenerated paper figure: the same series the paper plots.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Appendix is extra pre-formatted detail appended verbatim after the
	// table by Render and RenderCSV (e.g. a fault scenario's per-window
	// recovery curves). Empty for every paper figure, so their rendered
	// output is unchanged.
	Appendix string
}

// Render formats the figure as an aligned text table (systems as columns).
// Column width tracks the longest series label, so scenario series (whose
// labels carry workload and variant names) stay aligned.
func (f Figure) Render() string {
	colWidth := 16
	for _, s := range f.Series {
		if w := len(s.Label) + 2; w > colWidth {
			colWidth = w
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%*s", colWidth, s.Label)
	}
	fmt.Fprintf(&b, "    (%s)\n", f.YLabel)
	for _, x := range f.xOrder() {
		fmt.Fprintf(&b, "%-12.4g", x)
		for _, s := range f.Series {
			found := false
			for i := range s.X {
				if s.X[i] == x {
					fmt.Fprintf(&b, "%*.4g", colWidth, s.Y[i])
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(&b, "%*s", colWidth, "-")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(f.Appendix)
	return b.String()
}

// RenderCSV formats the figure as CSV: one row per X value, one column per
// series, empty cells for missing points.
func (f Figure) RenderCSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# figure %s: %s\n", f.ID, f.Title)
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	for _, x := range f.xOrder() {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			b.WriteByte(',')
			for i := range s.X {
				if s.X[i] == x {
					fmt.Fprintf(&b, "%g", s.Y[i])
					break
				}
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(f.Appendix)
	return b.String()
}

// xOrder is the sorted union of every series' X values: the rendered rows.
func (f Figure) xOrder() []float64 {
	seen := map[float64]bool{}
	var order []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				order = append(order, x)
			}
		}
	}
	sort.Float64s(order)
	return order
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

// metric extracts one Y value from a cell result.
type metric func(CellResult) float64

func throughputMetric(r CellResult) float64 { return r.Throughput }
func latencyMs(t sim.Time) float64          { return float64(t) / float64(sim.Millisecond) }
func readLatMetric(r CellResult) float64    { return latencyMs(r.ReadLat) }
func writeLatMetric(r CellResult) float64   { return latencyMs(r.WriteLat) }
func scanLatMetric(r CellResult) float64    { return latencyMs(r.ScanLat) }
func updateLatMetric(r CellResult) float64  { return latencyMs(r.UpdateLat) }
func diskGBMetric(r CellResult) float64     { return r.DiskBytesPaperScale / 1e9 }

// figure is the one assembler: it executes a plan's cells on the worker
// pool, then builds the Figure from the warm cache, one Series per plan
// series in plan order.
func (r *Runner) figure(p plan) (Figure, error) {
	if err := r.RunAll(p.cells()); err != nil {
		return Figure{}, err
	}
	measure := func(c Cell, m metric) (float64, error) {
		res, err := r.Run(c) // cache hit: RunAll measured it
		if err != nil {
			return 0, fmt.Errorf("cell %s: %w", r.key(c), err)
		}
		return m(res), nil
	}
	fig := Figure{ID: p.id, Title: p.title, XLabel: p.xLabel, YLabel: p.yLabel}
	for _, ps := range p.series {
		s := Series{Label: ps.label, X: append([]float64(nil), ps.xs...), Y: append([]float64(nil), ps.ys...)}
		var base float64
		if ps.base != nil {
			var err error
			if base, err = measure(*ps.base, ps.m); err != nil {
				return Figure{}, err
			}
		}
		for _, c := range ps.cells {
			y, err := measure(c, ps.m)
			if err != nil {
				return Figure{}, err
			}
			if ps.base != nil {
				if base > 0 {
					y = 100 * y / base
				} else {
					y = 0
				}
			}
			s.Y = append(s.Y, y)
		}
		if ps.base != nil {
			s.X = append(s.X, 100)
			s.Y = append(s.Y, 100)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// boundedSystems are the systems in the bounded-throughput experiment
// (§5.6 dropped VoltDB for its prohibitive multi-node latency).
var boundedSystems = []System{Cassandra, HBase, Voldemort, MySQL, Redis}

// boundedFractions are the load levels of Figs 15/16.
var boundedFractions = []float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95}

// boundedNodes and clusterDNodes are the fixed cluster sizes of the
// bounded-throughput (Figs 15/16) and Cluster D (Figs 18-20) experiments.
const (
	boundedNodes  = 8
	clusterDNodes = 8
)

// clusterDWorkloads are the Cluster D bar-chart workloads, in X order.
var clusterDWorkloads = []string{"R", "RW", "W"}

// figurePlanners declares every regenerated paper figure, in paper order.
var figurePlanners = []planner{
	sweep("3", "Throughput for Workload R", "ops/sec", "R", AllSystems, throughputMetric),
	sweep("4", "Read latency for Workload R", "ms", "R", AllSystems, readLatMetric),
	sweep("5", "Write latency for Workload R", "ms", "R", AllSystems, writeLatMetric),
	sweep("6", "Throughput for Workload RW", "ops/sec", "RW", AllSystems, throughputMetric),
	sweep("7", "Read latency for Workload RW", "ms", "RW", AllSystems, readLatMetric),
	sweep("8", "Write latency for Workload RW", "ms", "RW", AllSystems, writeLatMetric),
	sweep("9", "Throughput for Workload W", "ops/sec", "W", AllSystems, throughputMetric),
	sweep("10", "Read latency for Workload W", "ms", "W", AllSystems, readLatMetric),
	sweep("11", "Write latency for Workload W", "ms", "W", AllSystems, writeLatMetric),
	sweep("12", "Throughput for Workload RS", "ops/sec", "RS", ScanSystems, throughputMetric),
	sweep("13", "Scan latency for Workload RS", "ms", "RS", ScanSystems, scanLatMetric),
	sweep("14", "Throughput for Workload RSW", "ops/sec", "RSW", ScanSystems, throughputMetric),
	bounded("15", "Read latency for bounded throughput on Workload R", readLatMetric),
	bounded("16", "Write latency for bounded throughput on Workload R", writeLatMetric),
	{"17", diskUsage},
	clusterD("18", "Throughput for 8 nodes in Cluster D", "ops/sec", throughputMetric),
	clusterD("19", "Read latency for 8 nodes in Cluster D", "ms", readLatMetric),
	clusterD("20", "Write latency for 8 nodes in Cluster D", "ms", writeLatMetric),
}

// sweep plans systems × the configured node counts on one workload.
func sweep(id, title, yLabel, wl string, systems []System, m metric) planner {
	return planner{id, func(cfg Config) plan {
		p := plan{title: title, xLabel: "nodes", yLabel: yLabel}
		for _, sys := range systems {
			p.series = append(p.series, nodeSeries(string(sys), cfg.NodeCounts, m,
				func(n int) Cell { return Cell{System: sys, Nodes: n, Workload: wl} }))
		}
		return p
	}}
}

// bounded plans latency at fractions of maximum throughput on 8 nodes,
// normalized to the latency at 100% load (x100).
func bounded(id, title string, m metric) planner {
	return planner{id, func(Config) plan {
		p := plan{title: title, xLabel: "% of max tput", yLabel: "latency normalized to max-load (=100)"}
		for _, sys := range boundedSystems {
			base := Cell{System: sys, Nodes: boundedNodes, Workload: "R"}
			s := planSeries{label: string(sys), m: m, base: &base}
			for _, f := range boundedFractions {
				c := base
				c.TargetFraction = f
				s.cells = append(s.cells, c)
				s.xs = append(s.xs, f*100)
			}
			p.series = append(p.series, s)
		}
		return p
	}}
}

// diskUsage plans "Disk usage for 10 million records" from load-only cells,
// in paper-scale GB, plus the raw-data reference line.
func diskUsage(cfg Config) plan {
	p := plan{title: "Disk usage for 10 million records per node", xLabel: "nodes", yLabel: "GB"}
	for _, sys := range DiskSystems {
		p.series = append(p.series, nodeSeries(string(sys), cfg.NodeCounts, diskGBMetric,
			func(n int) Cell { return Cell{System: sys, Nodes: n, LoadOnly: true} }))
	}
	raw := planSeries{label: "raw data"}
	for _, n := range cfg.NodeCounts {
		raw.xs = append(raw.xs, float64(n))
		raw.ys = append(raw.ys, float64(cfg.RecordsPerNode*int64(n))*70/1e9)
	}
	p.series = append(p.series, raw)
	return p
}

// clusterD plans the Cluster D bar charts (Figs 18-20): 8 nodes, workloads
// R/RW/W, systems Cassandra/HBase/Voldemort.
func clusterD(id, title, yLabel string, m metric) planner {
	return planner{id, func(Config) plan {
		p := plan{title: title, xLabel: "workload#", yLabel: yLabel + " [x=1:R 2:RW 3:W]"}
		for _, sys := range ClusterDSystems {
			s := planSeries{label: string(sys), m: m}
			for i, wl := range clusterDWorkloads {
				s.cells = append(s.cells, Cell{System: sys, Nodes: clusterDNodes, Workload: wl, ClusterD: true})
				s.xs = append(s.xs, float64(i+1))
			}
			p.series = append(p.series, s)
		}
		return p
	}}
}

// Table1 renders the workload specification table.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1: Workload specifications\n")
	fmt.Fprintf(&b, "%-10s%10s%10s%10s\n", "Workload", "% Read", "% Scans", "% Inserts")
	rows := []struct {
		name                string
		read, scans, insert int
	}{
		{"R", 95, 0, 5}, {"RW", 50, 0, 50}, {"W", 1, 0, 99},
		{"RS", 47, 47, 6}, {"RSW", 25, 25, 50},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s%10d%10d%10d\n", r.name, r.read, r.scans, r.insert)
	}
	return b.String()
}

// FigureOrder lists figure IDs in paper order.
var FigureOrder = func() []string {
	ids := make([]string, len(figurePlanners))
	for i, p := range figurePlanners {
		ids[i] = p.id
	}
	return ids
}()
