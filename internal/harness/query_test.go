package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/query"
)

const queryScenarioJSON = `{
  "name": "dash",
  "description": "analytic grid",
  "systems": ["cassandra", "voldemort", "mysql"],
  "queries": [
    {"name": "overview", "weight": 4, "windowSec": 600, "aggs": ["avg", "max"]},
    {"name": "hot", "windowSec": 1800, "filter": "value>80", "aggs": ["count"], "orderBy": "count", "desc": true, "limit": 5}
  ],
  "nodes": [1, 2],
  "hardware": {"name": "ssd", "diskSeekMs": 0.1, "diskMBps": 400},
  "metric": "scan-latency"
}`

// TestScenarioQueriesExpand pins the query grid expansion: every cell
// carries the mix's canonical encoding (round-trippable by ParseMix), the
// hardware override, and a cache key extended by both — while Voldemort is
// skipped like a scan workload.
func TestScenarioQueriesExpand(t *testing.T) {
	s, err := ParseScenario([]byte(queryScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	specs, skipped, err := s.series()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "voldemort/queries" {
		t.Fatalf("skipped = %v, want [voldemort/queries]", skipped)
	}
	if len(specs) != 2 { // cassandra + mysql
		t.Fatalf("got %d series, want 2", len(specs))
	}
	r := NewRunner(Quick())
	for _, spec := range specs {
		if len(spec.cells) != 2 {
			t.Fatalf("series %s has %d cells, want 2", spec.label, len(spec.cells))
		}
		for _, c := range spec.cells {
			mix, err := query.ParseMix(c.Queries)
			if err != nil {
				t.Fatalf("cell %s carries unparseable mix: %v", r.key(c), err)
			}
			if got := mix.String(); got != c.Queries {
				t.Fatalf("mix does not round-trip:\n cell: %s\n back: %s", c.Queries, got)
			}
			if len(mix) != 2 || mix[0].Name != "overview" || mix[1].Name != "hot" {
				t.Fatalf("mix = %+v", mix)
			}
			if c.Spec.Name != "ssd" {
				t.Fatalf("hardware override missing: Spec = %+v", c.Spec)
			}
			key := r.key(c)
			if !strings.Contains(key, "/q="+c.Queries) {
				t.Fatalf("key %q lacks the /q= extension", key)
			}
			if !strings.Contains(key, "/hw=ssd(") {
				t.Fatalf("key %q lacks the /hw= extension", key)
			}
		}
	}
}

// TestScenarioHardwareResolves pins the hardware block's mapping onto
// cluster.Spec: overridden knobs take the JSON values, everything else
// inherits the base template, and the cell's node count wins.
func TestScenarioHardwareResolves(t *testing.T) {
	s, err := ParseScenario([]byte(queryScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	spec := clusterSpecFor(cells[0])
	if spec.Name != "ssd" || spec.Nodes != cells[0].Nodes {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Node.DiskMBps != 400 {
		t.Fatalf("DiskMBps = %v, want 400", spec.Node.DiskMBps)
	}
	if ms := spec.Node.DiskSeek.Seconds() * 1e3; ms < 0.099 || ms > 0.101 {
		t.Fatalf("DiskSeek = %v, want 0.1ms", spec.Node.DiskSeek)
	}
	base := clusterSpecFor(Cell{System: Cassandra, Nodes: cells[0].Nodes})
	if spec.Node.Cores != base.Node.Cores || spec.Node.RAMBytes != base.Node.RAMBytes {
		t.Fatalf("unset knobs must inherit Cluster M: %+v vs %+v", spec.Node, base.Node)
	}
}

func TestScenarioQueryValidation(t *testing.T) {
	bad := []string{
		// queries + workloads
		`{"name": "x", "systems": ["redis"], "nodes": [1],
		  "queries": [{"name": "q"}], "workloads": [{"name": "R"}]}`,
		// queries + loadOnly
		`{"name": "x", "systems": ["redis"], "nodes": [1],
		  "queries": [{"name": "q"}], "loadOnly": true}`,
		// queries + faults
		`{"name": "x", "systems": ["redis"], "nodes": [1],
		  "queries": [{"name": "q"}], "faults": [{"kind": "kill-node", "node": 0, "start": 0.5}]}`,
		// queries with a write-side metric
		`{"name": "x", "systems": ["redis"], "nodes": [1],
		  "queries": [{"name": "q"}], "metric": "write-latency"}`,
		// malformed spec inside the mix
		`{"name": "x", "systems": ["redis"], "nodes": [1],
		  "queries": [{"name": "q", "filter": "value=50"}]}`,
		// hardware without a name
		`{"name": "x", "systems": ["redis"], "nodes": [1],
		  "workloads": [{"name": "R"}], "hardware": {"cores": 4}}`,
		// hardware with an unknown base
		`{"name": "x", "systems": ["redis"], "nodes": [1],
		  "workloads": [{"name": "R"}], "hardware": {"name": "h", "base": "Z"}}`,
	}
	for i, doc := range bad {
		if _, err := ParseScenario([]byte(doc)); err == nil {
			t.Errorf("scenario %d unexpectedly valid", i)
		}
	}
}

// TestQueryCellPrunesSSTables is the figure's physics pin: a query cell on
// an LSM store over the time-ordered measurement grid must position scan
// cursors on sstables AND skip some by key-range metadata — the behaviour
// hash-permuted YCSB keys never expose — and the scanstats diagnostic line
// must surface both counters.
func TestQueryCellPrunesSSTables(t *testing.T) {
	mix := query.Mix{{Name: "overview", WindowSec: 600, Aggs: []string{"avg"}}}
	if err := mix.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{Cassandra, HBase} {
		t.Run(string(sys), func(t *testing.T) {
			r := NewRunner(Quick())
			var lines []string
			r.MemStats = func(l string) { lines = append(lines, l) }
			res, err := r.Run(Cell{System: sys, Nodes: 1, Queries: mix.String()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 || res.ScanLat <= 0 {
				t.Fatalf("no queries measured: %+v", res)
			}
			var stats string
			for _, l := range lines {
				if strings.HasPrefix(l, "scanstats ") {
					stats = l
				}
			}
			if stats == "" {
				t.Fatalf("no scanstats line; memstats lines: %v", lines)
			}
			pruned := counterIn(t, stats, "tables-pruned=")
			positioned := counterIn(t, stats, "tables-positioned=")
			if positioned == 0 || pruned == 0 {
				t.Fatalf("positioned=%d pruned=%d: ordered per-metric scans must both hit and prune sstables (%s)", positioned, pruned, stats)
			}
		})
	}
}

func counterIn(t *testing.T, line, field string) int64 {
	t.Helper()
	i := strings.Index(line, field)
	if i < 0 {
		t.Fatalf("line %q lacks %s", line, field)
	}
	rest := line[i+len(field):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		t.Fatalf("bad counter in %q: %v", line, err)
	}
	return n
}

// TestQueryCellDeterministic pins the seeding contract for the new cell
// kind: two independent runners measure a query cell bit-identically.
func TestQueryCellDeterministic(t *testing.T) {
	mix := query.Mix{{Name: "overview", WindowSec: 600}}
	if err := mix.Normalize(); err != nil {
		t.Fatal(err)
	}
	c := Cell{System: Cassandra, Nodes: 2, Queries: mix.String()}
	a, err := NewRunner(Quick()).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(Quick()).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("query cell not deterministic:\n a: %+v\n b: %+v", a, b)
	}
}

// TestQueryCellRejectsVoldemort: the query layer reads through the scan
// path Voldemort's client lacks, so a direct cell fails cleanly.
func TestQueryCellRejectsVoldemort(t *testing.T) {
	mix := query.Mix{{Name: "q"}}
	if err := mix.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(Quick()).Run(Cell{System: Voldemort, Nodes: 1, Queries: mix.String()}); err == nil {
		t.Fatal("voldemort query cell unexpectedly succeeded")
	}
}

// TestAPMDashboardBuiltin: the -figure apm-dashboard grid validates and
// plans query cells on every scan-capable system.
func TestAPMDashboardBuiltin(t *testing.T) {
	s := APMDashboard([]int{1, 2})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5*2 {
		t.Fatalf("planned %d cells, want 10", len(cells))
	}
	for _, c := range cells {
		if c.Queries == "" {
			t.Fatalf("cell %+v lacks queries", c)
		}
		if c.System == Voldemort {
			t.Fatalf("voldemort must not appear in the dashboard grid")
		}
	}
}
