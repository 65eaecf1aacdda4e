package harness

import (
	"errors"
	"fmt"
)

// The planning layer: every experiment the harness renders — a paper
// figure, an ablation, a scenario — is one plan: a figure header plus an
// ordered list of series, each naming the cells it plots. A plan declares
// its full cell set up front (plan.cells), so the execution layer
// (Runner.RunAll) can schedule dozens of independent simulations across
// workers, and the one assembler (Runner.figure) afterwards reads a warm
// cache. Order-independent seeding (Runner.cellSeed) is what makes this
// split sound — a planned parallel schedule and a one-at-a-time schedule
// produce bit-identical results.

// plan declares one rendered figure.
type plan struct {
	id, title, xLabel, yLabel string
	series                    []planSeries
}

// planSeries is one line of a plan: the Y value at xs[i] is m of cells[i].
type planSeries struct {
	label string
	cells []Cell
	xs    []float64
	m     metric
	// base, when set, normalizes the series to it: Y = 100*m(cell)/m(base)
	// (0 when the base measures 0), and the series ends at (100, 100). The
	// bounded-throughput figures (15/16) plot their TargetFraction cells
	// this way against the unthrottled base.
	base *Cell
	// ys are fixed Y values for a series without cells (Fig 17's raw-data
	// reference line).
	ys []float64
}

// cells expands the plan into every cell it measures, in series order with
// repeats dropped (series plotting two metrics share their cells). A
// normalized series lists its base before its throttled cells, so RunAll
// resolves each throttle target from the warm cache.
func (p plan) cells() []Cell {
	var out []Cell
	seen := map[Cell]bool{}
	add := func(c Cell) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, s := range p.series {
		if s.base != nil {
			add(*s.base)
		}
		for _, c := range s.cells {
			add(c)
		}
	}
	return out
}

// nodeSeries plans one series over a node sweep: cell(n) at X = n.
func nodeSeries(label string, nodes []int, m metric, cell func(n int) Cell) planSeries {
	s := planSeries{label: label, m: m}
	for _, n := range nodes {
		s.cells = append(s.cells, cell(n))
		s.xs = append(s.xs, float64(n))
	}
	return s
}

// planner declares one paper figure: its plan under a config.
type planner struct {
	id   string
	plan func(Config) plan
}

// ErrUnknownFigure is returned (wrapped) for an id that names no figure,
// ablation or built-in extra.
var ErrUnknownFigure = errors.New("harness: unknown figure")

// dashboardID names the built-in analytic figure (APMDashboard). It
// resolves like any figure but stays out of FigureOrder, so `-figure all`
// output is unchanged by it.
const dashboardID = "apm-dashboard"

// planFor resolves a figure id, an ablation id or dashboardID to its plan
// under the runner's config.
func (r *Runner) planFor(id string) (plan, error) {
	if id == dashboardID {
		p, _, err := APMDashboard(r.Cfg.NodeCounts).plan()
		return p, err
	}
	for _, pl := range figurePlanners {
		if pl.id == id {
			p := pl.plan(r.Cfg)
			p.id = id
			return p, nil
		}
	}
	for _, a := range ablations {
		if a.id == id {
			return a.plan(r.Cfg), nil
		}
	}
	return plan{}, fmt.Errorf("%w %q", ErrUnknownFigure, id)
}

// CellsFor returns every cell figure or ablation id measures (see
// plan.cells for the order). Unknown ids return nil.
func (r *Runner) CellsFor(id string) []Cell {
	p, err := r.planFor(id)
	if err != nil {
		return nil
	}
	return p.cells()
}

// Figure plans figure or ablation id (or the apm-dashboard extra), executes
// its cells on the worker pool, and assembles the figure from the warm
// cache.
func (r *Runner) Figure(id string) (Figure, error) {
	p, err := r.planFor(id)
	if err != nil {
		return Figure{}, err
	}
	return r.figure(p)
}

// Prewarm plans and executes the given figures' and ablations' cells
// through the worker pool in one batch, deduplicating cells shared between
// them (e.g. Figs 3/4/5 plot the same runs, and an ablation's
// paper-default series reuses figure cells); subsequent figure or ablation
// generation then reads entirely from the warm cache.
func (r *Runner) Prewarm(ids ...string) error {
	var cells []Cell
	for _, id := range ids {
		p, err := r.planFor(id)
		if err != nil {
			return err
		}
		cells = append(cells, p.cells()...)
	}
	return r.RunAll(cells)
}
