package query

import (
	"fmt"
	"sort"

	"repro/internal/apm"
	"repro/internal/sim"
	"repro/internal/store"
)

// Iter is the volcano-style pull interface between row-streaming operators:
// Next returns the next measurement until the stream is exhausted, after
// which Err reports the first upstream failure (a store scan error, a
// malformed record).
type Iter interface {
	Next() (apm.Measurement, bool)
	Err() error
}

// Range is one per-metric scan range: the [From, To] time window of a
// single metric series — the unit the dashboard's multi-series panel seeks
// per displayed metric.
type Range struct {
	Metric   string
	From, To int64
}

// DefaultPageSize is the scan operator's page length: each page is one
// store scan RPC (the classic paginated range read).
const DefaultPageSize = 60

// ScanOp streams measurements from the store, one page-sized cursor at a
// time, across a list of per-metric ranges. Each page open charges the
// store's full scan cost in virtual time (positioning, per-row CPU, wire
// transfer); pulling rows from the open cursor is host-side only. A range
// ends when a row leaves the metric or the window, or a short page proves
// the series is exhausted.
type ScanOp struct {
	p        *sim.Proc
	st       store.Store
	ranges   []Range
	pageSize int

	ri       int // current range
	cur      store.Cursor
	got      int    // rows pulled from the current page
	lastKey  string // continuation point for the next page
	seekNext bool   // current range needs a fresh page
	err      error
}

// NewScan opens a streaming scan over ranges. No I/O happens until the
// first Next.
func NewScan(p *sim.Proc, st store.Store, ranges []Range, pageSize int) *ScanOp {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &ScanOp{p: p, st: st, ranges: ranges, pageSize: pageSize, seekNext: true}
}

// Next implements Iter.
func (s *ScanOp) Next() (apm.Measurement, bool) {
	for s.err == nil && s.ri < len(s.ranges) {
		r := s.ranges[s.ri]
		if s.seekNext {
			start := apm.Measurement{Metric: r.Metric, Timestamp: r.From}.Key()
			if s.lastKey != "" {
				start = s.lastKey + "\x00"
			}
			cur, err := s.st.Scan(s.p, start, s.pageSize)
			if err != nil {
				s.err = err
				return apm.Measurement{}, false
			}
			s.cur, s.got, s.seekNext = cur, 0, false
		}
		if !s.cur.Next() {
			// Cursor exhausted: a full page continues the range from its
			// last key, a short page means the key space itself ran out.
			short := s.got < s.pageSize
			s.closeCur()
			if short {
				s.nextRange()
			} else {
				s.seekNext = true
			}
			continue
		}
		s.got++
		key := s.cur.Key()
		m, err := apm.Decode(key, s.cur.Fields())
		if err != nil {
			s.err = err
			s.closeCur()
			return apm.Measurement{}, false
		}
		if m.Metric != r.Metric || m.Timestamp > r.To {
			// Left the series or the window: this range is done. The rest
			// of the page was already paid for (scan charges are count-
			// based at open), exactly like the materialized reader that
			// over-fetched its last page.
			s.closeCur()
			s.nextRange()
			continue
		}
		s.lastKey = key
		return m, true
	}
	s.closeCur()
	return apm.Measurement{}, false
}

func (s *ScanOp) closeCur() {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
}

func (s *ScanOp) nextRange() {
	s.ri++
	s.lastKey = ""
	s.seekNext = true
}

// Err implements Iter.
func (s *ScanOp) Err() error { return s.err }

// FilterOp drops rows failing a predicate.
type FilterOp struct {
	in   Iter
	pred func(apm.Measurement) bool
}

// NewFilter wraps in with a row predicate.
func NewFilter(in Iter, pred func(apm.Measurement) bool) *FilterOp {
	return &FilterOp{in: in, pred: pred}
}

// Next implements Iter.
func (f *FilterOp) Next() (apm.Measurement, bool) {
	for {
		m, ok := f.in.Next()
		if !ok {
			return apm.Measurement{}, false
		}
		if f.pred(m) {
			return m, true
		}
	}
}

// Err implements Iter.
func (f *FilterOp) Err() error { return f.in.Err() }

// filterPred compiles a validated filter expression.
func filterPred(expr string) (func(apm.Measurement) bool, error) {
	col, op, val, err := parseFilter(expr)
	if err != nil {
		return nil, err
	}
	colFn := column(col)
	switch op {
	case "<":
		return func(m apm.Measurement) bool { return colFn(m) < val }, nil
	case "<=":
		return func(m apm.Measurement) bool { return colFn(m) <= val }, nil
	case ">":
		return func(m apm.Measurement) bool { return colFn(m) > val }, nil
	default:
		return func(m apm.Measurement) bool { return colFn(m) >= val }, nil
	}
}

// column returns the projection for a validated column name.
func column(col string) func(apm.Measurement) float64 {
	switch col {
	case "min":
		return func(m apm.Measurement) float64 { return m.Min }
	case "max":
		return func(m apm.Measurement) float64 { return m.Max }
	default:
		return func(m apm.Measurement) float64 { return m.Value }
	}
}

// Projected is a row after projection: its group key and the single value
// column the aggregates consume.
type Projected struct {
	Group string
	Val   float64
}

// ProjIter is the pull interface between projection and aggregation.
type ProjIter interface {
	Next() (Projected, bool)
	Err() error
}

// ProjectOp maps measurements to (group, value) pairs.
type ProjectOp struct {
	in      Iter
	groupBy string
	col     func(apm.Measurement) float64
}

// NewProject projects rows onto a validated groupBy and column.
func NewProject(in Iter, groupBy, col string) *ProjectOp {
	return &ProjectOp{in: in, groupBy: groupBy, col: column(col)}
}

// Next implements ProjIter.
func (o *ProjectOp) Next() (Projected, bool) {
	m, ok := o.in.Next()
	if !ok {
		return Projected{}, false
	}
	return Projected{Group: o.group(m), Val: o.col(m)}, true
}

func (o *ProjectOp) group(m apm.Measurement) string {
	switch o.groupBy {
	case "metric":
		return m.Metric
	case "kind":
		if i := lastSlash(m.Metric); i >= 0 {
			return m.Metric[i+1:]
		}
		return m.Metric
	default:
		return "all"
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// Err implements ProjIter.
func (o *ProjectOp) Err() error { return o.in.Err() }

// aggState is one group's running aggregate state. Percentile aggregates
// keep the projected values; the cheap aggregates are O(1) counters.
type aggState struct {
	n        int64
	sum      float64
	min, max float64
	vals     []float64 // only when a percentile was requested
}

// ResultRow is one grouped output row: the group key and the requested
// aggregates, positionally matching the spec's Aggs.
type ResultRow struct {
	Group string
	Aggs  []float64
}

// Aggregate drains the projected stream into per-group aggregate state and
// emits one row per group, sorted by group key. It is the pipeline's
// barrier: group-by cannot emit before its input is exhausted.
func Aggregate(in ProjIter, aggs []string) ([]ResultRow, error) {
	keepVals := aggIndex(aggs, "p50") >= 0 || aggIndex(aggs, "p99") >= 0
	groups := map[string]*aggState{}
	for {
		r, ok := in.Next()
		if !ok {
			break
		}
		st := groups[r.Group]
		if st == nil {
			st = &aggState{min: r.Val, max: r.Val}
			groups[r.Group] = st
		}
		st.n++
		st.sum += r.Val
		if r.Val < st.min {
			st.min = r.Val
		}
		if r.Val > st.max {
			st.max = r.Val
		}
		if keepVals {
			st.vals = append(st.vals, r.Val)
		}
	}
	if err := in.Err(); err != nil {
		return nil, err
	}
	out := make([]ResultRow, 0, len(groups))
	for _, g := range sortedGroups(groups) {
		st := groups[g]
		row := ResultRow{Group: g, Aggs: make([]float64, len(aggs))}
		for i, a := range aggs {
			switch a {
			case "count":
				row.Aggs[i] = float64(st.n)
			case "avg":
				row.Aggs[i] = st.sum / float64(st.n)
			case "min":
				row.Aggs[i] = st.min
			case "max":
				row.Aggs[i] = st.max
			case "p50":
				row.Aggs[i] = percentile(st.vals, 0.50)
			case "p99":
				row.Aggs[i] = percentile(st.vals, 0.99)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// percentile is the nearest-rank percentile of vals (sorted in place).
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := int(q*float64(len(vals)) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(vals) {
		rank = len(vals)
	}
	return vals[rank-1]
}

// OrderLimit sorts the grouped rows by "group" or a named aggregate
// (ties break on group key, so the order is total and deterministic) and
// truncates to limit when limit > 0.
func OrderLimit(rows []ResultRow, orderBy string, aggs []string, desc bool, limit int) []ResultRow {
	if orderBy != "group" {
		ai := aggIndex(aggs, orderBy)
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].Aggs[ai] != rows[j].Aggs[ai] {
				return rows[i].Aggs[ai] < rows[j].Aggs[ai]
			}
			return rows[i].Group < rows[j].Group
		})
	}
	if desc {
		for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// Query is a planned pipeline for one spec.
type Query struct {
	Spec Spec
	pred func(apm.Measurement) bool // nil when unfiltered
}

// Plan validates and normalizes the spec and compiles its pipeline.
func Plan(s Spec) (*Query, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	q := &Query{Spec: s}
	if s.Filter != "" {
		pred, err := filterPred(s.Filter)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", s.Name, err)
		}
		q.pred = pred
	}
	return q, nil
}

// Execute runs the pipeline over the given per-metric ranges:
// scan → [filter] → project → aggregate → order/limit.
func (q *Query) Execute(p *sim.Proc, st store.Store, ranges []Range) ([]ResultRow, error) {
	var rows Iter = NewScan(p, st, ranges, DefaultPageSize)
	if q.pred != nil {
		rows = NewFilter(rows, q.pred)
	}
	grouped, err := Aggregate(NewProject(rows, q.Spec.GroupBy, q.Spec.Column), q.Spec.Aggs)
	if err != nil {
		return nil, err
	}
	return OrderLimit(grouped, q.Spec.OrderBy, q.Spec.Aggs, q.Spec.Desc, q.Spec.Limit), nil
}
