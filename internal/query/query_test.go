package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/apm"
	"repro/internal/sim"
	"repro/internal/store"
)

// memStore is a minimal sorted in-memory Store for operator tests: every
// scan charges a fixed small virtual cost (so closed-loop runs advance
// simulated time) and serves records in key order like any real store.
type memStore struct {
	keys []string
	recs map[string]store.Fields
}

func newMemStore() *memStore { return &memStore{recs: map[string]store.Fields{}} }

func (m *memStore) Name() string { return "mem" }

func (m *memStore) Load(key string, f store.Fields) error {
	if _, ok := m.recs[key]; !ok {
		i := sort.SearchStrings(m.keys, key)
		m.keys = append(m.keys, "")
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = key
	}
	m.recs[key] = f
	return nil
}

func (m *memStore) Insert(p *sim.Proc, key string, f store.Fields) error {
	return m.Load(key, f)
}

func (m *memStore) Update(p *sim.Proc, key string, f store.Fields) error {
	return m.Load(key, f)
}

func (m *memStore) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	f, ok := m.recs[key]
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return store.ViewFields(f), nil
}

func (m *memStore) Scan(p *sim.Proc, start string, count int) (store.Cursor, error) {
	p.Sleep(10 * sim.Microsecond)
	i := sort.SearchStrings(m.keys, start)
	out := make([]store.Record, 0, count)
	for ; i < len(m.keys) && len(out) < count; i++ {
		out = append(out, store.Record{Key: m.keys[i], Fields: store.ViewFields(m.recs[m.keys[i]])})
	}
	return store.NewSliceCursor(out), nil
}

func (m *memStore) Caps() store.Caps { return store.Caps{Scans: true} }
func (m *memStore) DiskUsage() int64 { return 0 }

// inProc runs fn inside one simulated process and drains the engine.
func inProc(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	e := sim.NewEngine(1)
	e.Go("test", fn)
	e.Run(0)
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Name: "q"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := Spec{Name: "q", Weight: 1, WindowSec: 600, GroupBy: "metric",
		Column: "value", Aggs: []string{"avg"}, OrderBy: "group"}
	if fmt.Sprint(s) != fmt.Sprint(want) {
		t.Fatalf("defaults = %+v, want %+v", s, want)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "a b"},
		{Name: "q", Weight: -1},
		{Name: "q", GroupBy: "host"},
		{Name: "q", Column: "median"},
		{Name: "q", Aggs: []string{"sum"}},
		{Name: "q", Aggs: []string{"avg", "avg"}},
		{Name: "q", Filter: "value=50"},
		{Name: "q", Filter: "rate>50"},
		{Name: "q", OrderBy: "p99"},
		{Name: "q", Limit: -1},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d (%+v) unexpectedly valid", i, s)
		}
	}
}

func TestMixCanonicalRoundTrip(t *testing.T) {
	m := Mix{
		{Name: "overview", Weight: 4, WindowSec: 600, Aggs: []string{"avg", "max"}},
		{Name: "hot", Weight: 2, WindowSec: 1800, Filter: "value>80",
			Aggs: []string{"count", "avg"}, OrderBy: "count", Desc: true, Limit: 5},
		{Name: "tails", WindowSec: 3600, GroupBy: "kind", Column: "max",
			Aggs: []string{"p50", "p99"}},
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	enc := m.String()
	back, err := ParseMix(enc)
	if err != nil {
		t.Fatalf("ParseMix(%q): %v", enc, err)
	}
	if got := back.String(); got != enc {
		t.Fatalf("round trip changed the encoding:\n in: %s\nout: %s", enc, got)
	}
	if fmt.Sprint(back) != fmt.Sprint(m) {
		t.Fatalf("round trip changed the mix:\n in: %+v\nout: %+v", m, back)
	}
}

func TestParseMixRejectsMalformed(t *testing.T) {
	for _, enc := range []string{
		"",
		"noparens",
		"q(w=1",
		"q(wat=1,win=600,group=metric,col=value,aggs=avg,filter=,order=group,limit=0)",
		"q(w=x,win=600,group=metric,col=value,aggs=avg,filter=,order=group,limit=0)",
		// duplicate names across the mix
		"a(w=1,win=600,group=metric,col=value,aggs=avg,filter=,order=group,limit=0)+a(w=1,win=600,group=metric,col=value,aggs=avg,filter=,order=group,limit=0)",
	} {
		if _, err := ParseMix(enc); err == nil {
			t.Errorf("ParseMix(%q) unexpectedly valid", enc)
		}
	}
}

func TestDatasetDeterministicAndOrdered(t *testing.T) {
	ds := SizeDataset(16000)
	if ds.Records() != int64(ds.Hosts*ds.MetricsPerHost)*ds.Intervals {
		t.Fatalf("Records() inconsistent")
	}
	a, b := newMemStore(), newMemStore()
	if err := ds.Load(a); err != nil {
		t.Fatal(err)
	}
	if err := ds.Load(b); err != nil {
		t.Fatal(err)
	}
	if len(a.keys) != int(ds.Records()) {
		t.Fatalf("loaded %d keys, want %d", len(a.keys), ds.Records())
	}
	for i, k := range a.keys {
		if b.keys[i] != k {
			t.Fatalf("load not deterministic at %d: %q vs %q", i, k, b.keys[i])
		}
		av, bv := a.recs[k], b.recs[k]
		for j := range av {
			if string(av[j]) != string(bv[j]) {
				t.Fatalf("field %d of %q differs across loads", j, k)
			}
		}
	}
	// Values are integer-derived and must land exactly on tenths.
	m := ds.synth(ds.HostMetrics(0)[0], 3)
	if m.Value < 0 || m.Value > 100.1 || m.Value*10 != math.Trunc(m.Value*10) {
		t.Fatalf("synth value %v outside the deterministic grid", m.Value)
	}
}

// expectedRows computes a query's grouped output directly from the dataset
// definition (no store, no operators) for golden comparison.
func expectedRows(ds Dataset, host int, s Spec) []ResultRow {
	from, to := ds.Window(s.WindowSec)
	var pred func(apm.Measurement) bool
	if s.Filter != "" {
		pred, _ = filterPred(s.Filter)
	}
	col := column(s.Column)
	groups := map[string][]float64{}
	for _, metric := range ds.HostMetrics(host) {
		for k := int64(0); k < ds.Intervals; k++ {
			m := ds.synth(metric, k)
			if m.Timestamp < from || m.Timestamp > to {
				continue
			}
			if pred != nil && !pred(m) {
				continue
			}
			g := m.Metric
			switch s.GroupBy {
			case "kind":
				if i := lastSlash(g); i >= 0 {
					g = g[i+1:]
				}
			case "none":
				g = "all"
			}
			groups[g] = append(groups[g], col(m))
		}
	}
	var rows []ResultRow
	for _, g := range sortedGroups(groups) {
		vals := groups[g]
		row := ResultRow{Group: g, Aggs: make([]float64, len(s.Aggs))}
		for i, a := range s.Aggs {
			switch a {
			case "count":
				row.Aggs[i] = float64(len(vals))
			case "avg":
				var sum float64
				for _, v := range vals {
					sum += v
				}
				row.Aggs[i] = sum / float64(len(vals))
			case "min":
				mn := vals[0]
				for _, v := range vals {
					if v < mn {
						mn = v
					}
				}
				row.Aggs[i] = mn
			case "max":
				mx := vals[0]
				for _, v := range vals {
					if v > mx {
						mx = v
					}
				}
				row.Aggs[i] = mx
			case "p50":
				row.Aggs[i] = percentile(append([]float64(nil), vals...), 0.50)
			case "p99":
				row.Aggs[i] = percentile(append([]float64(nil), vals...), 0.99)
			}
		}
		rows = append(rows, row)
	}
	return OrderLimit(rows, s.OrderBy, s.Aggs, s.Desc, s.Limit)
}

func TestExecuteMatchesDirectComputation(t *testing.T) {
	ds := SizeDataset(8000)
	st := newMemStore()
	if err := ds.Load(st); err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Name: "plain", WindowSec: 600, Aggs: []string{"avg", "max", "count"}},
		{Name: "filtered", WindowSec: 1800, Filter: "value>50", Aggs: []string{"count", "avg"}},
		{Name: "kinds", WindowSec: 3600, GroupBy: "kind", Aggs: []string{"p50", "p99", "min"}},
		{Name: "global", WindowSec: 900, GroupBy: "none", Column: "max", Aggs: []string{"avg"}},
		{Name: "top3", WindowSec: 1800, Aggs: []string{"avg"}, OrderBy: "avg", Desc: true, Limit: 3},
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			q, err := Plan(s)
			if err != nil {
				t.Fatal(err)
			}
			for host := 0; host < 2; host++ {
				from, to := ds.Window(q.Spec.WindowSec)
				var got []ResultRow
				inProc(t, func(p *sim.Proc) {
					var err error
					got, err = q.Execute(p, st, ds.HostRanges(host, from, to))
					if err != nil {
						t.Errorf("Execute: %v", err)
					}
				})
				want := expectedRows(ds, host, q.Spec)
				if len(got) == 0 {
					t.Fatalf("host %d: no rows", host)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("host %d rows diverge:\n got %v\nwant %v", host, got, want)
				}
			}
		})
	}
}

func TestScanOpPaginatesWithoutLoss(t *testing.T) {
	// Window depth greater than the page size forces multi-page ranges:
	// every in-window row must come out exactly once, in key order.
	ds := Dataset{Hosts: 1, MetricsPerHost: 4, Intervals: 150, IntervalSec: 15, BaseTs: datasetBaseTs}
	st := newMemStore()
	if err := ds.Load(st); err != nil {
		t.Fatal(err)
	}
	from, to := ds.Window(150 * 15)
	var rows []apm.Measurement
	inProc(t, func(p *sim.Proc) {
		scan := NewScan(p, st, ds.HostRanges(0, from, to), DefaultPageSize)
		for {
			m, ok := scan.Next()
			if !ok {
				break
			}
			rows = append(rows, m)
		}
		if err := scan.Err(); err != nil {
			t.Errorf("scan: %v", err)
		}
	})
	if len(rows) != int(ds.Records()) {
		t.Fatalf("streamed %d rows, want %d", len(rows), ds.Records())
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Metric == rows[i].Metric && rows[i-1].Timestamp >= rows[i].Timestamp {
			t.Fatalf("rows out of order at %d: %v then %v", i, rows[i-1], rows[i])
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if p := percentile(append([]float64(nil), vals...), 0.50); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := percentile(append([]float64(nil), vals...), 0.99); p != 100 {
		t.Fatalf("p99 = %v, want 100", p)
	}
	if p := percentile([]float64{7}, 0.99); p != 7 {
		t.Fatalf("p99 of singleton = %v, want 7", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("p50 of empty = %v, want 0", p)
	}
}

func TestRunCollectsQueryLatencies(t *testing.T) {
	ds := SizeDataset(4000)
	st := newMemStore()
	if err := ds.Load(st); err != nil {
		t.Fatal(err)
	}
	mix := Mix{{Name: "overview", WindowSec: 600}, {Name: "deep", Weight: 0.5, WindowSec: 3600}}
	e := sim.NewEngine(7)
	res, err := Run(e, RunConfig{
		Store:   st,
		Dataset: ds,
		Mix:     mix,
		Clients: 4,
		Warmup:  10 * sim.Millisecond,
		Measure: 50 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops() == 0 {
		t.Fatal("no queries completed in the measured window")
	}
	if res.Errors() != 0 {
		t.Fatalf("%d errors", res.Errors())
	}
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %v", res.Throughput())
	}
}

func TestRunRejectsQuerylessStores(t *testing.T) {
	ds := SizeDataset(1000)
	e := sim.NewEngine(1)
	_, err := Run(e, RunConfig{
		Store:   noQueryStore{newMemStore()},
		Dataset: ds,
		Mix:     Mix{{Name: "q"}},
		Clients: 1,
		Measure: sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "scan") {
		t.Fatalf("err = %v, want scans-unsupported", err)
	}
}

type noQueryStore struct{ *memStore }

func (noQueryStore) Caps() store.Caps { return store.Caps{} }

func BenchmarkQueryFilterAgg(b *testing.B) {
	ds := SizeDataset(4000)
	st := newMemStore()
	if err := ds.Load(st); err != nil {
		b.Fatal(err)
	}
	q, err := Plan(Spec{Name: "bench", WindowSec: 3600, Filter: "value>50",
		Aggs: []string{"count", "avg", "p99"}})
	if err != nil {
		b.Fatal(err)
	}
	from, to := ds.Window(q.Spec.WindowSec)
	ranges := ds.HostRanges(0, from, to)
	e := sim.NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Execute(p, st, ranges); err != nil {
				b.Error(err)
				return
			}
		}
	})
	e.Run(0)
}
