package harness

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// quickRunner is shared across tests: cells are cached, so shape assertions
// over the same cells cost one run. It is built in TestMain so that -short
// can shrink the simulated warmup/measure windows (testing.Short is only
// valid after flags are parsed).
var quickRunner *Runner

// testCfg returns Quick fidelity, or with -short the measurement windows
// halved: still long enough for every shape assertion (quartering starves
// the slowest scan cells of samples), but `go test -short` stays fast.
func testCfg() Config {
	cfg := Quick()
	if testing.Short() {
		cfg.Warmup = 100 * sim.Millisecond
		cfg.Measure = 300 * sim.Millisecond
	}
	return cfg
}

func TestMain(m *testing.M) {
	flag.Parse()
	quickRunner = NewRunner(testCfg())
	os.Exit(m.Run())
}

func cellOrFatal(t *testing.T, c Cell) CellResult {
	t.Helper()
	res, err := quickRunner.Run(c)
	if err != nil {
		t.Fatalf("cell %+v: %v", c, err)
	}
	return res
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.Defaults()
	if cfg.Scale != 0.01 || cfg.RecordsPerNode != 10_000_000 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if len(cfg.NodeCounts) == 0 || cfg.Measure == 0 {
		t.Fatalf("defaults missing sweep/measure: %+v", cfg)
	}
}

func TestDeployAllSystems(t *testing.T) {
	for _, sys := range AllSystems {
		dep, err := Deploy(1, sys, cluster.ClusterM(2), 0.001)
		if err != nil {
			t.Fatalf("deploy %s: %v", sys, err)
		}
		if dep.Store.Name() != string(sys) {
			t.Fatalf("deployed %q, got store %q", sys, dep.Store.Name())
		}
	}
	if _, err := Deploy(1, System("nope"), cluster.ClusterM(1), 0.01); err == nil {
		t.Fatal("unknown system accepted")
	}
	// The retired legacy-load knob is no longer vocabulary anywhere.
	if _, err := DeployVariants(1, MySQL, cluster.ClusterM(1), 0.001, "btree-bulk=off"); err == nil ||
		!strings.Contains(err.Error(), `does not support variant "btree-bulk"`) {
		t.Fatalf("mysql btree-bulk=off: err = %v, want unknown variant", err)
	}
}

// TestSupportsScansMatchesStoreCaps pins the pre-deploy scan predicate to
// the deployed stores' own capability bit, so the support matrix the
// planner and scenario layer read cannot drift from what the stores serve.
func TestSupportsScansMatchesStoreCaps(t *testing.T) {
	for _, sys := range AllSystems {
		dep, err := Deploy(1, sys, cluster.ClusterM(1), 0.001)
		if err != nil {
			t.Fatalf("deploy %s: %v", sys, err)
		}
		if got, want := SupportsScans(sys), dep.Store.Caps().Scans; got != want {
			t.Errorf("%s: SupportsScans = %v, deployed Caps().Scans = %v", sys, got, want)
		}
	}
}

func TestConnsPolicy(t *testing.T) {
	if got := Conns(Cassandra, 12, false); got != 1536 {
		t.Fatalf("cassandra 12-node conns = %d, want 1536 (paper §3)", got)
	}
	if got := Conns(Cassandra, 8, true); got != 64 {
		t.Fatalf("cluster D conns = %d, want 64 (2 per core)", got)
	}
	if got := Conns(Voldemort, 4, false); got >= 128 {
		t.Fatalf("voldemort conns = %d, want small pool (§6)", got)
	}
	if Conns(Redis, 12, false) >= Conns(Cassandra, 12, false) {
		t.Fatal("redis client threads must be reduced vs default (§6)")
	}
}

func TestSupportsWorkload(t *testing.T) {
	if SupportsWorkload(Voldemort, ycsb.WorkloadRS) {
		t.Fatal("voldemort must not support scan workloads")
	}
	if !SupportsWorkload(Voldemort, ycsb.WorkloadR) || !SupportsWorkload(Cassandra, ycsb.WorkloadRS) {
		t.Fatal("workload support matrix wrong")
	}
	updates := ycsb.Workload{Name: "U", ReadProp: 0.5, UpdateProp: 0.5}
	for _, sys := range AllSystems {
		if !SupportsWorkload(sys, updates) {
			t.Fatalf("%s must accept update mixes: the B-tree stores model read-modify-write now", sys)
		}
	}
	if SupportsWorkload(Voldemort, ycsb.Workload{Name: "US", ScanProp: 0.5, UpdateProp: 0.5, ScanLength: 10}) {
		t.Fatal("scan half of a mix must still exclude voldemort")
	}
}

func TestCellCaching(t *testing.T) {
	r := NewRunner(testCfg())
	c := Cell{System: Redis, Nodes: 1, Workload: "R"}
	a, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput {
		t.Fatal("cached cell returned different result")
	}
}

func TestRunnerRejectsVoldemortScans(t *testing.T) {
	r := NewRunner(testCfg())
	if _, err := r.Run(Cell{System: Voldemort, Nodes: 1, Workload: "RS"}); err == nil {
		t.Fatal("voldemort RS cell should error")
	}
}

// --- Headline shape assertions (paper §5.9) at quick fidelity ---

func TestShapeWebStoresScaleLinearly(t *testing.T) {
	for _, sys := range []System{Cassandra, HBase, Voldemort} {
		one := cellOrFatal(t, Cell{System: sys, Nodes: 1, Workload: "R"})
		four := cellOrFatal(t, Cell{System: sys, Nodes: 4, Workload: "R"})
		speedup := four.Throughput / one.Throughput
		if speedup < 2.0 {
			t.Errorf("%s 1->4 node speedup = %.2f, want >= 2 (near-linear scaling)", sys, speedup)
		}
	}
}

func TestShapeVoltDBDoesNotScale(t *testing.T) {
	one := cellOrFatal(t, Cell{System: VoltDB, Nodes: 1, Workload: "R"})
	four := cellOrFatal(t, Cell{System: VoltDB, Nodes: 4, Workload: "R"})
	if four.Throughput >= one.Throughput {
		t.Errorf("VoltDB 4-node tput %.0f >= 1-node %.0f; paper shows negative scaling", four.Throughput, one.Throughput)
	}
}

func TestShapeSingleNodeOrdering(t *testing.T) {
	redis := cellOrFatal(t, Cell{System: Redis, Nodes: 1, Workload: "R"})
	voldemort := cellOrFatal(t, Cell{System: Voldemort, Nodes: 1, Workload: "R"})
	hbase := cellOrFatal(t, Cell{System: HBase, Nodes: 1, Workload: "R"})
	cassandra := cellOrFatal(t, Cell{System: Cassandra, Nodes: 1, Workload: "R"})
	if !(redis.Throughput > cassandra.Throughput) {
		t.Errorf("redis (%.0f) should lead cassandra (%.0f) on one node", redis.Throughput, cassandra.Throughput)
	}
	if !(cassandra.Throughput > voldemort.Throughput) {
		t.Errorf("cassandra (%.0f) should beat voldemort (%.0f) on one node", cassandra.Throughput, voldemort.Throughput)
	}
	if !(voldemort.Throughput > hbase.Throughput) {
		t.Errorf("voldemort (%.0f) should beat hbase (%.0f) on one node", voldemort.Throughput, hbase.Throughput)
	}
}

func TestShapeHBaseLatencyAsymmetry(t *testing.T) {
	res := cellOrFatal(t, Cell{System: HBase, Nodes: 2, Workload: "R"})
	if res.WriteLat*10 > res.ReadLat {
		t.Errorf("hbase write %v should be far below read %v (Fig 4 vs 5)", res.WriteLat, res.ReadLat)
	}
}

func TestShapeVoldemortLowestStableLatency(t *testing.T) {
	v := cellOrFatal(t, Cell{System: Voldemort, Nodes: 2, Workload: "R"})
	c := cellOrFatal(t, Cell{System: Cassandra, Nodes: 2, Workload: "R"})
	if v.ReadLat >= c.ReadLat {
		t.Errorf("voldemort read %v should undercut cassandra %v", v.ReadLat, c.ReadLat)
	}
	if v.ReadLat > sim.Millisecond {
		t.Errorf("voldemort read %v should be sub-millisecond", v.ReadLat)
	}
}

func TestShapeHBaseGainsFromWrites(t *testing.T) {
	r := cellOrFatal(t, Cell{System: HBase, Nodes: 2, Workload: "R"})
	w := cellOrFatal(t, Cell{System: HBase, Nodes: 2, Workload: "W"})
	if w.Throughput < 1.5*r.Throughput {
		t.Errorf("hbase W tput %.0f should be well above R %.0f (Fig 3 vs 9)", w.Throughput, r.Throughput)
	}
}

func TestShapeCassandraWritesSlowerThanReads(t *testing.T) {
	res := cellOrFatal(t, Cell{System: Cassandra, Nodes: 2, Workload: "R"})
	if res.WriteLat <= res.ReadLat {
		t.Errorf("cassandra write %v should exceed read %v (Fig 5: highest stable write latency)", res.WriteLat, res.ReadLat)
	}
}

func TestShapeMySQLScansCollapseWhenSharded(t *testing.T) {
	rs1 := cellOrFatal(t, Cell{System: MySQL, Nodes: 1, Workload: "RS"})
	rs4 := cellOrFatal(t, Cell{System: MySQL, Nodes: 4, Workload: "RS"})
	if rs4.Throughput > rs1.Throughput {
		t.Errorf("mysql RS tput grew with shards (%.0f -> %.0f); paper shows no scaling", rs1.Throughput, rs4.Throughput)
	}
	if rs4.ScanLat < rs1.ScanLat {
		t.Errorf("mysql scan latency should grow with shards: %v -> %v", rs1.ScanLat, rs4.ScanLat)
	}
}

func TestShapeClusterDThroughputRisesWithWriteRatio(t *testing.T) {
	if testing.Short() {
		// Cluster D loads 15x the records of Cluster M and the W-vs-R gap
		// is too narrow to assert on a halved measure window.
		t.Skip("cluster D cells need the full measure window")
	}
	for _, sys := range ClusterDSystems {
		r := cellOrFatal(t, Cell{System: sys, Nodes: 4, Workload: "R", ClusterD: true})
		w := cellOrFatal(t, Cell{System: sys, Nodes: 4, Workload: "W", ClusterD: true})
		// Voldemort's BDB pays b-tree disk I/O for writes just like reads,
		// so its W-vs-R ratio converges to ~1.0 (within sampling noise) in
		// this model rather than the LSM systems' multiples; assert it
		// holds disk-bound parity instead of a strict win.
		if sys == Voldemort {
			if ratio := w.Throughput / r.Throughput; ratio < 0.85 || ratio > 1.15 {
				t.Errorf("%s on Cluster D: W/R tput ratio %.2f left the parity band [0.85,1.15] (Fig 18)", sys, ratio)
			}
			continue
		}
		if w.Throughput <= r.Throughput {
			t.Errorf("%s on Cluster D: W tput %.0f should exceed R %.0f (Fig 18)", sys, w.Throughput, r.Throughput)
		}
	}
}

func TestBoundedRunThrottles(t *testing.T) {
	maxRes := cellOrFatal(t, Cell{System: Voldemort, Nodes: 2, Workload: "R"})
	half := cellOrFatal(t, Cell{System: Voldemort, Nodes: 2, Workload: "R", TargetFraction: 0.5})
	ratio := half.Throughput / maxRes.Throughput
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("bounded run achieved %.2f of max, want ~0.5", ratio)
	}
	if half.ReadLat > maxRes.ReadLat {
		t.Errorf("bounded latency %v should not exceed max-load latency %v", half.ReadLat, maxRes.ReadLat)
	}
}

func TestFig17SeriesOrdering(t *testing.T) {
	fig, err := quickRunner.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Y[len(s.Y)-1] // largest node count
	}
	if !(byLabel["hbase"] > byLabel["voldemort"] && byLabel["voldemort"] >= byLabel["mysql"]*0.9 &&
		byLabel["mysql"] > byLabel["cassandra"] && byLabel["cassandra"] > byLabel["raw data"]) {
		t.Errorf("Fig 17 ordering wrong: %v (want hbase > voldemort ~ mysql > cassandra > raw)", byLabel)
	}
}

func TestTable1Rendering(t *testing.T) {
	tbl := Table1()
	for _, want := range []string{"R ", "RW", "RSW", "95", "47", "99"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, tbl)
		}
	}
}

func TestFigureRender(t *testing.T) {
	fig := Figure{ID: "x", Title: "T", XLabel: "nodes", YLabel: "ops",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{2}, Y: []float64{5}}}}
	out := fig.Render()
	if !strings.Contains(out, "Figure x: T") || !strings.Contains(out, "a") || !strings.Contains(out, "-") {
		t.Errorf("render output malformed:\n%s", out)
	}
}

func TestFiguresRegistryComplete(t *testing.T) {
	figs := quickRunner.Figures()
	if len(figs) != 18 {
		t.Fatalf("registry has %d figures, want 18 (Figs 3-20)", len(figs))
	}
	for _, id := range FigureOrder {
		if _, ok := figs[id]; !ok {
			t.Errorf("figure %s missing from registry", id)
		}
	}
}

func TestAblationsRegistry(t *testing.T) {
	abl := quickRunner.Ablations()
	if len(abl) != 9 {
		t.Fatalf("ablation registry has %d entries, want 9", len(abl))
	}
}

func TestRenderCSV(t *testing.T) {
	fig := Figure{ID: "9", Title: "T", XLabel: "nodes",
		Series: []Series{{Label: "a,b", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "c", X: []float64{1}, Y: []float64{5}}}}
	out := fig.RenderCSV()
	if !strings.Contains(out, `"a,b"`) {
		t.Errorf("label with comma not quoted:\n%s", out)
	}
	if !strings.Contains(out, "1,10,5") || !strings.Contains(out, "2,20,") {
		t.Errorf("csv rows wrong:\n%s", out)
	}
}

func TestRepetitionsAverage(t *testing.T) {
	cfg := Quick()
	cfg.Repetitions = 2
	r := NewRunner(cfg)
	res, err := r.Run(Cell{System: Redis, Nodes: 1, Workload: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("averaged cell has no throughput")
	}
	// Ops accumulate across repetitions.
	single := NewRunner(testCfg())
	one, err := single.Run(Cell{System: Redis, Nodes: 1, Workload: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops <= one.Ops {
		t.Fatalf("2-rep ops %d should exceed 1-rep ops %d", res.Ops, one.Ops)
	}
}

func TestExplainReportsUtilization(t *testing.T) {
	r := NewRunner(testCfg())
	ex, err := r.Explain(Cell{System: Cassandra, Nodes: 2, Workload: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Nodes) != 2 {
		t.Fatalf("explanation covers %d nodes, want 2", len(ex.Nodes))
	}
	// Max-throughput Cassandra is CPU bound; utilization must show it.
	if ex.Nodes[0].CPU < 0.5 {
		t.Fatalf("cpu utilization %.2f, want saturated under max load", ex.Nodes[0].CPU)
	}
	out := ex.Render()
	if !strings.Contains(out, "bottleneck: cpu") {
		t.Errorf("render did not name the cpu bottleneck:\n%s", out)
	}
}

// TestExplainMatchesRun pins that Explain observes the very run Run
// measures: fault, throttled and query cells included, its headline
// throughput and error count equal the cell's result. A cell Run rejects,
// Explain rejects too.
func TestExplainMatchesRun(t *testing.T) {
	dash, err := APMDashboard([]int{1}).Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cell Cell
	}{
		{"plain", Cell{System: Cassandra, Nodes: 2, Workload: "R"}},
		{"fault", Cell{System: Cassandra, Nodes: 2, Workload: "W", Faults: "kill-node@1[0.3:0.6]"}},
		{"throttled", Cell{System: Cassandra, Nodes: 2, Workload: "R", TargetFraction: 0.5}},
		{"query", dash[0]},
		{"bad", Cell{System: Voldemort, Nodes: 1, Workload: "RS"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(testCfg())
			ex, exErr := r.Explain(tc.cell)
			res, runErr := r.Run(tc.cell)
			if tc.name == "bad" {
				if exErr == nil || runErr == nil {
					t.Fatalf("voldemort scans accepted: explain err %v, run err %v", exErr, runErr)
				}
				return
			}
			if exErr != nil || runErr != nil {
				t.Fatalf("explain err %v, run err %v", exErr, runErr)
			}
			if ex.Throughput != res.Throughput || ex.Errors != res.Errors {
				t.Fatalf("explain %.2f ops/s, %d errors; run %.2f ops/s, %d errors",
					ex.Throughput, ex.Errors, res.Throughput, res.Errors)
			}
			if len(ex.Nodes) != tc.cell.Nodes {
				t.Fatalf("explanation covers %d nodes, want %d", len(ex.Nodes), tc.cell.Nodes)
			}
		})
	}
}

// TestCompactionThresholdVariant pins the compaction-threshold deploy
// variant: it is real model vocabulary (it changes the compaction
// schedule, so modeled numbers move), it reaches the LSM config
// on both LSM stores, and malformed or misdirected forms are rejected.
func TestCompactionThresholdVariant(t *testing.T) {
	run := func(sys System, v string) (float64, int64) {
		dep, err := DeployVariants(7, sys, cluster.ClusterM(2), 0.001, v)
		if err != nil {
			t.Fatalf("%s deploy %q: %v", sys, v, err)
		}
		if err := ycsb.Load(dep.Store, 20000); err != nil {
			t.Fatal(err)
		}
		res, err := ycsb.Run(dep.Engine, ycsb.RunConfig{
			Store:          dep.Store,
			Workload:       ycsb.WorkloadW,
			Clients:        8,
			InitialRecords: 20000,
			Warmup:         50 * sim.Millisecond,
			Measure:        200 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput(), dep.Store.DiskUsage()
	}

	// An eager threshold compacts tiers that the default of 4 leaves
	// alone, so Cassandra's write-heavy cell must shift.
	defTput, defDisk := run(Cassandra, "")
	eagerTput, eagerDisk := run(Cassandra, "compaction-threshold=2")
	if defTput == eagerTput && defDisk == eagerDisk {
		t.Fatalf("cassandra compaction-threshold=2 changed nothing (tput %v, disk %d); variant not reaching the LSM",
			defTput, defDisk)
	}
	// HBase accepts the same vocabulary (its write cell is too small here
	// to accumulate a tier, so only deployability is asserted).
	run(HBase, "compaction-threshold=2")

	for _, bad := range []struct {
		sys System
		v   string
	}{
		{Redis, "compaction-threshold=2"},     // not an LSM store
		{MySQL, "compaction-threshold=2"},     // not an LSM store
		{Cassandra, "compaction-threshold=1"}, // below the minimum of 2
		{Cassandra, "compaction-threshold=x"}, // not an integer
		{HBase, "compaction-threshold="},      // empty value
	} {
		if _, err := DeployVariants(1, bad.sys, cluster.ClusterM(1), 0.001, bad.v); err == nil {
			t.Fatalf("%s accepted %q", bad.sys, bad.v)
		}
	}
}

// TestBatchSizeVariant pins the hbase batch-size deploy variant: a
// one-record write buffer flushes an RPC per put where the default of 128
// amortizes it, so HBase's write-heavy cell must shift; other systems and
// malformed forms are rejected.
func TestBatchSizeVariant(t *testing.T) {
	run := func(v string) float64 {
		dep, err := DeployVariants(7, HBase, cluster.ClusterM(2), 0.001, v)
		if err != nil {
			t.Fatalf("hbase deploy %q: %v", v, err)
		}
		if err := ycsb.Load(dep.Store, 20000); err != nil {
			t.Fatal(err)
		}
		res, err := ycsb.Run(dep.Engine, ycsb.RunConfig{
			Store:          dep.Store,
			Workload:       ycsb.WorkloadW,
			Clients:        8,
			InitialRecords: 20000,
			Warmup:         50 * sim.Millisecond,
			Measure:        200 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput()
	}

	defTput := run("")
	unbatched := run("batch-size=1")
	if defTput == unbatched {
		t.Fatalf("hbase batch-size=1 changed nothing (tput %v); variant not reaching the client buffer", defTput)
	}
	// The default spelled out explicitly must reproduce the paper cell.
	if explicit := run("batch-size=128"); explicit != defTput {
		t.Fatalf("batch-size=128 (%v) differs from default (%v)", explicit, defTput)
	}

	for _, bad := range []struct {
		sys System
		v   string
	}{
		{Cassandra, "batch-size=64"}, // hbase-only vocabulary
		{Redis, "batch-size=64"},
		{HBase, "batch-size=0"}, // below the minimum of 1
		{HBase, "batch-size=x"}, // not an integer
		{HBase, "batch-size="},  // empty value
	} {
		if _, err := DeployVariants(1, bad.sys, cluster.ClusterM(1), 0.001, bad.v); err == nil {
			t.Fatalf("%s accepted %q", bad.sys, bad.v)
		}
	}
}

// TestSitesPerHostVariant pins the voltdb sites-per-host deploy variant:
// it resizes the partition ring, so keys hash to different single-threaded
// sites and the cell's numbers move; other systems and malformed forms are
// rejected.
func TestSitesPerHostVariant(t *testing.T) {
	run := func(v string) float64 {
		dep, err := DeployVariants(7, VoltDB, cluster.ClusterM(2), 0.001, v)
		if err != nil {
			t.Fatalf("voltdb deploy %q: %v", v, err)
		}
		if err := ycsb.Load(dep.Store, 20000); err != nil {
			t.Fatal(err)
		}
		res, err := ycsb.Run(dep.Engine, ycsb.RunConfig{
			Store:          dep.Store,
			Workload:       ycsb.WorkloadW,
			Clients:        8,
			InitialRecords: 20000,
			Warmup:         50 * sim.Millisecond,
			Measure:        200 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput()
	}

	defTput := run("")
	single := run("sites-per-host=1")
	if defTput == single {
		t.Fatalf("voltdb sites-per-host=1 changed nothing (tput %v); variant not reaching the ring", defTput)
	}
	// The paper's default spelled out explicitly must reproduce the cell.
	if explicit := run("sites-per-host=6"); explicit != defTput {
		t.Fatalf("sites-per-host=6 (%v) differs from default (%v)", explicit, defTput)
	}

	for _, bad := range []struct {
		sys System
		v   string
	}{
		{MySQL, "sites-per-host=4"}, // voltdb-only vocabulary
		{HBase, "sites-per-host=4"},
		{VoltDB, "sites-per-host=0"}, // below the minimum of 1
		{VoltDB, "sites-per-host=x"}, // not an integer
		{VoltDB, "sites-per-host="},  // empty value
	} {
		if _, err := DeployVariants(1, bad.sys, cluster.ClusterM(1), 0.001, bad.v); err == nil {
			t.Fatalf("%s accepted %q", bad.sys, bad.v)
		}
	}
}
