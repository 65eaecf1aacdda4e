// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one testing.B benchmark per exhibit), plus ablation benches
// for the design choices DESIGN.md calls out.
//
// Each benchmark executes its figure end to end — deploy, load, warm up,
// measure — on the quick configuration (scale 1/1000, 1/2/4 nodes), and
// reports the figure's headline value as a custom metric so -benchmem runs
// double as a coarse regression check. For paper-scale output use
// cmd/apmbench.
package repro

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/btree"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/lsm"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/store"
)

func clusterM4() cluster.Spec       { return cluster.ClusterM(4) }
func keyOf(i int64) string          { return store.Key(i) }
func fieldsOf(i int64) store.Fields { return store.MakeFields(i) }

// benchCfg is the shared quick-fidelity configuration. A single cached
// runner is shared across benchmarks so figures over the same cells (e.g.
// Fig 3/4/5) measure each cell once.
var benchRunner = harness.NewRunner(harness.Config{
	Scale:          0.001,
	Warmup:         200 * sim.Millisecond,
	Measure:        600 * sim.Millisecond,
	NodeCounts:     []int{1, 2, 4},
	RecordsPerNode: 10_000_000,
})

// runFigureBench executes the figure generator b.N times and reports the
// mean of the last series' final Y value.
func runFigureBench(b *testing.B, gen func() (harness.Figure, error), metricName string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		fig, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) > 0 && len(fig.Series[0].Y) > 0 {
			s := fig.Series[0]
			last = s.Y[len(s.Y)-1]
		}
	}
	b.ReportMetric(last, metricName)
}

func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig03ThroughputR(b *testing.B) {
	runFigureBench(b, benchRunner.Fig3, "cassandra_ops/s")
}

func BenchmarkFig04ReadLatencyR(b *testing.B) {
	runFigureBench(b, benchRunner.Fig4, "cassandra_read_ms")
}

func BenchmarkFig05WriteLatencyR(b *testing.B) {
	runFigureBench(b, benchRunner.Fig5, "cassandra_write_ms")
}

func BenchmarkFig06ThroughputRW(b *testing.B) {
	runFigureBench(b, benchRunner.Fig6, "cassandra_ops/s")
}

func BenchmarkFig07ReadLatencyRW(b *testing.B) {
	runFigureBench(b, benchRunner.Fig7, "cassandra_read_ms")
}

func BenchmarkFig08WriteLatencyRW(b *testing.B) {
	runFigureBench(b, benchRunner.Fig8, "cassandra_write_ms")
}

func BenchmarkFig09ThroughputW(b *testing.B) {
	runFigureBench(b, benchRunner.Fig9, "cassandra_ops/s")
}

func BenchmarkFig10ReadLatencyW(b *testing.B) {
	runFigureBench(b, benchRunner.Fig10, "cassandra_read_ms")
}

func BenchmarkFig11WriteLatencyW(b *testing.B) {
	runFigureBench(b, benchRunner.Fig11, "cassandra_write_ms")
}

func BenchmarkFig12ThroughputRS(b *testing.B) {
	runFigureBench(b, benchRunner.Fig12, "cassandra_ops/s")
}

func BenchmarkFig13ScanLatencyRS(b *testing.B) {
	runFigureBench(b, benchRunner.Fig13, "cassandra_scan_ms")
}

func BenchmarkFig14ThroughputRSW(b *testing.B) {
	runFigureBench(b, benchRunner.Fig14, "cassandra_ops/s")
}

func BenchmarkFig15BoundedReadLatency(b *testing.B) {
	runFigureBench(b, benchRunner.Fig15, "cassandra_norm")
}

func BenchmarkFig16BoundedWriteLatency(b *testing.B) {
	runFigureBench(b, benchRunner.Fig16, "cassandra_norm")
}

func BenchmarkFig17DiskUsage(b *testing.B) {
	runFigureBench(b, benchRunner.Fig17, "cassandra_gb")
}

func BenchmarkFig18ClusterDThroughput(b *testing.B) {
	runFigureBench(b, benchRunner.Fig18, "cassandra_ops/s")
}

func BenchmarkFig19ClusterDReadLatency(b *testing.B) {
	runFigureBench(b, benchRunner.Fig19, "cassandra_read_ms")
}

func BenchmarkFig20ClusterDWriteLatency(b *testing.B) {
	runFigureBench(b, benchRunner.Fig20, "cassandra_write_ms")
}

func BenchmarkAblationCassandraTokens(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-cassandra-tokens"], "optimal_ops/s")
}

func BenchmarkAblationRedisSharding(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-redis-sharding"], "jedis_ops/s")
}

func BenchmarkAblationMySQLBinlog(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-mysql-binlog"], "binlog_gb")
}

func BenchmarkAblationHBaseAutoflush(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-hbase-autoflush"], "buffered_ops/s")
}

func BenchmarkAblationVoltDBAsync(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-voltdb-async"], "sync_ops/s")
}

func BenchmarkAblationCassandraCommitlog(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-cassandra-commitlog"], "write_ms")
}

// BenchmarkSingleOps measures the per-operation simulation cost for each
// store (how fast the simulator itself runs, not the simulated latency).
func BenchmarkSingleOps(b *testing.B) {
	for _, sys := range harness.AllSystems {
		b.Run(string(sys), func(b *testing.B) {
			dep, err := harness.Deploy(1, sys, clusterM4(), 0.001)
			if err != nil {
				b.Fatal(err)
			}
			for i := int64(0); i < 1000; i++ {
				dep.Store.Load(keyOf(i), fieldsOf(i))
			}
			b.ResetTimer()
			dep.Engine.Go("bench", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					dep.Store.Read(p, keyOf(int64(i%1000)))
				}
			})
			dep.Engine.Run(0)
		})
	}
}

// BenchmarkEngineSchedule measures the scheduler hot path: scheduling and
// draining one reused timer event. This is the per-event floor every
// simulated operation pays many times over.
func BenchmarkEngineSchedule(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Microsecond, fn)
		e.Run(0)
	}
}

// benchTree builds a memory-bound LSM tree with 50k records spread over
// several SSTable generations, plus the precomputed key set.
func benchTree(e *sim.Engine) (*lsm.Tree, []string) {
	n := cluster.New(e, cluster.ClusterM(1)).Nodes[0]
	tr := lsm.New(lsm.Config{
		Node:       n,
		Seed:       1,
		FlushBytes: 1 << 17,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		CacheBytes: 1 << 30, // fully cached: isolate CPU cost from simulated I/O
	})
	keys := make([]string, 50000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%09d", i)
		tr.LoadDirect(keys[i], [][]byte{[]byte("0123456789")})
	}
	return tr, keys
}

// BenchmarkLSMGet measures the point-read path across memtable and tables.
func BenchmarkLSMGet(b *testing.B) {
	e := sim.NewEngine(1)
	tr, keys := benchTree(e)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, ok := tr.Get(p, keys[i%len(keys)]); !ok {
				// Errorf, not Fatal: Fatal must not run off the bench
				// goroutine and would deadlock the engine.
				b.Errorf("missing key %s", keys[i%len(keys)])
				return
			}
		}
	})
	e.Run(0)
}

// BenchmarkLSMInsert measures the full per-operation write path the
// benchmark's load and insert loops pay against copy-on-ingest stores:
// key build and field-set build into reused per-client buffers (the YCSB
// runner's steady-state path — zero allocations per op), WAL append
// (async) and memtable insert. The flush threshold is set beyond the
// bench's reach so the numbers isolate the per-op cost from flush churn
// (which the figure benches cover end to end).
func BenchmarkLSMInsert(b *testing.B) {
	e := sim.NewEngine(1)
	n := cluster.New(e, cluster.ClusterM(1)).Nodes[0]
	tr := lsm.New(lsm.Config{
		Node:       n,
		Seed:       1,
		FlushBytes: 1 << 40,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		CacheBytes: 1 << 30,
	})
	var buf store.Fields
	var kb []byte
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			id := int64(i)
			buf = store.FillFields(buf, id, store.FieldBytes)
			kb = store.AppendKey(kb[:0], id)
			// Zero-copy string view of the key buffer: sound because the
			// memtable copies key bytes into its arena before returning,
			// the same contract the runner's reuse path relies on.
			tr.Put(p, unsafe.String(unsafe.SliceData(kb), len(kb)), buf)
		}
	})
	e.Run(0)
}

// BenchmarkLSMInsertNoReuse is BenchmarkLSMInsert on the allocating path
// the runner takes against stores that retain caller slices: a fresh key
// string and field set per operation. The gap against BenchmarkLSMInsert
// is the per-op win of the buffer-reuse fast path.
func BenchmarkLSMInsertNoReuse(b *testing.B) {
	e := sim.NewEngine(1)
	n := cluster.New(e, cluster.ClusterM(1)).Nodes[0]
	tr := lsm.New(lsm.Config{
		Node:       n,
		Seed:       1,
		FlushBytes: 1 << 40,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
		CacheBytes: 1 << 30,
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			id := int64(i)
			tr.Put(p, store.Key(id), store.MakeFields(id))
		}
	})
	e.Run(0)
}

// benchBTreeConfig mirrors the MySQL deployment's InnoDB shape (94-row
// leaves, 512-way internals, default 1024-page pool — evictions included,
// since the load phase pays them too on small pools).
func benchBTreeConfig() btree.Config {
	return btree.Config{LeafCap: 94, InternalCap: 512}
}

// benchBTreeData precomputes benchmark-shaped keys and field sets so the
// B-tree benches measure tree cost, not key formatting.
func benchBTreeData(n int) ([]string, [][][]byte) {
	keys := make([]string, n)
	vals := make([][][]byte, n)
	for i := range keys {
		keys[i] = store.Key(int64(i))
		vals[i] = store.MakeFields(int64(i))
	}
	return keys, vals
}

// BenchmarkBTreeInsert measures the per-record insert path (workload-phase
// inserts): prefix-compared
// descent, leaf insert, splits, intrusive buffer-pool touches.
func BenchmarkBTreeInsert(b *testing.B) {
	keys, vals := benchBTreeData(b.N)
	tr := btree.New(benchBTreeConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i], vals[i])
	}
}

// BenchmarkBTreeBulkLoad measures the deferred bulk build the load phase
// uses by default: buffer the batch, then one construction pass with no
// per-touch buffer-pool work and a stamp-rebuilt pool.
func BenchmarkBTreeBulkLoad(b *testing.B) {
	keys, vals := benchBTreeData(b.N)
	tr := btree.New(benchBTreeConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Load(keys[i], vals[i])
	}
	_ = tr.Len() // Len seals: the deferred build runs inside the timer
}

// BenchmarkBTreeUpdate measures the read-modify-write path MySQL/Voldemort
// updates charge: a clean descent plus an in-place leaf rewrite.
func BenchmarkBTreeUpdate(b *testing.B) {
	const n = 100_000
	keys, vals := benchBTreeData(n)
	tr := btree.New(benchBTreeConfig())
	for i := 0; i < n; i++ {
		tr.Load(keys[i], vals[i])
	}
	tr.Len() // seal outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := tr.Update(keys[i%n], vals[i%n]); !ok {
			b.Fatal("update missed a loaded key")
		}
	}
}

// BenchmarkLSMScan measures the 50-row merged range-scan path.
func BenchmarkLSMScan(b *testing.B) {
	e := sim.NewEngine(1)
	tr, keys := benchTree(e)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if got := tr.Scan(p, keys[i%len(keys)], 50); len(got) == 0 {
				b.Errorf("empty scan from %s", keys[i%len(keys)])
				return
			}
		}
	})
	e.Run(0)
}

// BenchmarkScanGather measures the 50-row scan of the hash-partitioned
// in-memory stores on a loaded 4-node deployment: every VoltDB site's or
// Redis instance's range merged into one count-bounded result. The scan's
// virtual-time charges run too, as in a figure cell.
func BenchmarkScanGather(b *testing.B) {
	const records = 40_000 // quick fidelity: 10k records per node
	keys := make([]string, records)
	for i := range keys {
		keys[i] = keyOf(int64(i))
	}
	for _, sys := range []harness.System{harness.VoltDB, harness.Redis} {
		b.Run(string(sys), func(b *testing.B) {
			dep, err := harness.Deploy(1, sys, clusterM4(), 0.001)
			if err != nil {
				b.Fatal(err)
			}
			for i, k := range keys {
				dep.Store.Load(k, fieldsOf(int64(i)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			dep.Engine.Go("scan", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					cur, err := dep.Store.Scan(p, keys[i%records], 50)
					if err != nil {
						b.Errorf("scan from %s: %v", keys[i%records], err)
						return
					}
					for cur.Next() {
					}
					cur.Close()
				}
			})
			dep.Engine.Run(0)
		})
	}
}

func BenchmarkAblationCassandraReplication(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-cassandra-replication"], "rf1_ops/s")
}

func BenchmarkAblationCassandraCompression(b *testing.B) {
	runFigureBench(b, benchRunner.Ablations()["ablation-cassandra-compression"], "tput_off_ops/s")
}

// benchRunAllFig3 measures end-to-end cell execution for Fig 3's plan (18
// cells at quick fidelity) on a fresh, cold runner per iteration, at the
// given worker-pool width. Serial-vs-parallel pairs quantify the cell-level
// parallelism the plan/execute runner buys on multi-core.
func benchRunAllFig3(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(harness.Config{
			Scale:          0.001,
			Warmup:         200 * sim.Millisecond,
			Measure:        600 * sim.Millisecond,
			NodeCounts:     []int{1, 2, 4},
			RecordsPerNode: 10_000_000,
		})
		r.Workers = workers
		if err := r.RunAll(r.CellsFor("3")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllFig3Serial(b *testing.B)   { benchRunAllFig3(b, 1) }
func BenchmarkRunAllFig3Parallel(b *testing.B) { benchRunAllFig3(b, 0) } // 0 = GOMAXPROCS
