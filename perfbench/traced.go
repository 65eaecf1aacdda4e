package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/ycsb"
)

// layerTotals sums the traced pass's per-phase host costs over every cell.
// The driver is ycsb on the ycsb-* workloads and query on apm-dashboard.
type layerTotals struct {
	deploy, load, run   time.Duration
	loadMB, runMB       float64 // bytes allocated per phase, MiB
	records             int64   // records loaded
	virtual             sim.Time
	procsLeft           int
	slab                int64 // store slab bytes after load
	positioned, pruned  int64 // lsm scan-path tables
	winOps, drainedRows int64
}

// cellKey is Runner.key for the plain preset and query cells the workloads
// plan; any other cell shape is refused rather than seeded differently.
func cellKey(c harness.Cell, cfg harness.Config) (string, error) {
	if c.Mix.Name != "" || c.Spec.Name != "" || c.Variants != "" || c.RecordsPerNode != 0 ||
		c.Repetitions != 0 || c.Faults != "" || c.LoadOnly || c.TargetFraction != 0 || c.ClusterD ||
		cfg.Repetitions != 1 {
		return "", fmt.Errorf("traced pass models plain Cluster M cells only, got %+v", c)
	}
	k := fmt.Sprintf("%s/%d/%s/d=%v/f=%g", c.System, c.Nodes, c.Workload, c.ClusterD, c.TargetFraction)
	if c.Queries != "" {
		k += "/q=" + c.Queries
	}
	return k, nil
}

// cellSeed is the derivation documented on Runner.cellSeed: FNV-1a over
// (Cfg.Seed, cell key, repetition), integers little-endian.
func cellSeed(seed int64, key string, rep int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(key))
	binary.LittleEndian.PutUint64(b[:], uint64(rep))
	h.Write(b[:])
	return int64(h.Sum64())
}

func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// tracedCell re-drives one cell through the calls Runner.run makes
// (DeployVariants, then ycsb.LoadSized/ycsb.Run or Dataset.Load/query.Run)
// with the deployed store behind a tracedStore.
func tracedCell(c harness.Cell, cfg harness.Config, ctr *storeCounters, t *layerTotals) (harness.CellResult, error) {
	key, err := cellKey(c, cfg)
	if err != nil {
		return harness.CellResult{}, err
	}
	records := int64(float64(cfg.RecordsPerNode*int64(c.Nodes)) * cfg.Scale)

	t0 := time.Now()
	dep, err := harness.DeployVariants(cellSeed(cfg.Seed, key, 0), c.System, cluster.ClusterM(c.Nodes), cfg.Scale, c.Variants)
	t.deploy += time.Since(t0)
	if err != nil {
		return harness.CellResult{}, err
	}
	st := wrap(dep.Store, ctr)

	var load func() error
	var run func() (*stats.Collector, error)
	if c.Queries != "" {
		mix, err := query.ParseMix(c.Queries)
		if err != nil {
			return harness.CellResult{}, err
		}
		ds := query.SizeDataset(records)
		records = ds.Records()
		load = func() error { return ds.Load(st) }
		run = func() (*stats.Collector, error) {
			res, err := query.Run(dep.Engine, query.RunConfig{
				Store: st, Dataset: ds, Mix: mix, Clients: 4 * c.Nodes,
				Warmup: cfg.Warmup, Measure: cfg.Measure,
			})
			if err != nil {
				return nil, err
			}
			return res.Collector, nil
		}
	} else {
		wl, err := ycsb.WorkloadByName(c.Workload)
		if err != nil {
			return harness.CellResult{}, err
		}
		load = func() error { return ycsb.LoadSized(st, records, wl.FieldSize()) }
		run = func() (*stats.Collector, error) {
			res, err := ycsb.Run(dep.Engine, ycsb.RunConfig{
				Store: st, Workload: wl, Clients: harness.Conns(c.System, c.Nodes, c.ClusterD),
				InitialRecords: records, Warmup: cfg.Warmup, Measure: cfg.Measure,
			})
			if err != nil {
				return nil, err
			}
			return res.Collector, nil
		}
	}

	a0, t1 := allocatedMB(), time.Now()
	if err := load(); err != nil {
		return harness.CellResult{}, err
	}
	t.load += time.Since(t1)
	t.loadMB += allocatedMB() - a0
	t.records += records
	if slab, ok := store.SlabBytesOf(st); ok {
		t.slab += slab
	}

	ctr.winFrom = dep.Engine.Now() + cfg.Warmup
	ctr.winTo = ctr.winFrom + cfg.Measure
	rows0 := ctr.windowRows
	a1, t2 := allocatedMB(), time.Now()
	col, err := run()
	if err != nil {
		return harness.CellResult{}, err
	}
	t.run += time.Since(t2)
	t.runMB += allocatedMB() - a1
	t.winOps += col.Ops()
	t.drainedRows += ctr.windowRows - rows0
	t.virtual += dep.Engine.Now()
	t.procsLeft += dep.Engine.Procs()
	if positioned, pruned, ok := store.ScanStatsOf(st); ok {
		t.positioned += positioned
		t.pruned += pruned
	}
	return harness.CellResult{
		Cell:                c,
		Throughput:          col.Throughput(),
		ReadLat:             col.MeanLatency(stats.OpRead),
		WriteLat:            col.MeanLatency(stats.OpInsert),
		UpdateLat:           col.MeanLatency(stats.OpUpdate),
		ScanLat:             col.MeanLatency(stats.OpScan),
		Ops:                 col.Ops(),
		Errors:              col.Errors(),
		Timeouts:            col.Timeouts(),
		DiskBytesPaperScale: float64(st.DiskUsage()) / cfg.Scale,
	}, nil
}

// settledGoroutines is runtime.NumGoroutine once exiting goroutines have
// had a moment to finish.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// tracedRun is one traced pass over a workload's cells.
type tracedRun struct {
	results []harness.CellResult
	ctr     storeCounters
	t       layerTotals
	// cpu holds each cell's CPU time; ref the reference samples
	// (hostref.go) taken before the first cell and after every cell.
	cpu, ref []time.Duration
	leaked   int // goroutines alive after the pass that were not before
}

// tracedPass runs tracedCell over every cell of the workload, in plan order.
func tracedPass(wl workload, cfg harness.Config) (*tracedRun, error) {
	cells, err := wl.cells(harness.NewRunner(cfg))
	if err != nil {
		return nil, err
	}
	tr := &tracedRun{}
	g0 := settledGoroutines()
	sample := func() error {
		s, err := refSample()
		tr.ref = append(tr.ref, s)
		return err
	}
	if err := sample(); err != nil {
		return nil, err
	}
	for _, c := range cells {
		cpu0, _, err := usage()
		if err != nil {
			return nil, err
		}
		res, err := tracedCell(c, cfg, &tr.ctr, &tr.t)
		if err != nil {
			return nil, err
		}
		cpu1, _, err := usage()
		if err != nil {
			return nil, err
		}
		tr.cpu = append(tr.cpu, cpu1-cpu0)
		tr.results = append(tr.results, res)
		if err := sample(); err != nil {
			return nil, err
		}
	}
	tr.leaked = settledGoroutines() - g0
	return tr, nil
}

// traced runs one untraced pass in a fresh child process, then the traced
// pass over the same cells in this process, which has run nothing before
// it, then the layer probes, and reports the per-layer metrics. Both passes
// start in a fresh process, so trace.overhead_frac compares like with like.
func traced(wl workload, seed int64) (result, error) {
	plain, err := childPass(wl, seed)
	if err != nil {
		return result{}, fmt.Errorf("untraced pass: %w", err)
	}
	tr, err := tracedPass(wl, config(seed))
	if err != nil {
		return result{}, err
	}
	ctr, t := &tr.ctr, &tr.t

	correct := true
	want := plain.Digest
	if got := digest(tr.results); got != want {
		fmt.Fprintf(os.Stderr, "perfbench: traced digest %s differs from untraced digest %s\n", got, want)
		correct = false
	}
	if err := checkRecorded(wl.name, seed, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		correct = false
	}

	m := metrics{}
	m.set("harness.wall_s", plain.Wall, "s")
	m.set("harness.deploy_s", t.deploy.Seconds(), "s")
	m.set("driver.load_s", t.load.Seconds(), "s")
	m.set("driver.load_ns_per_record", ratio(float64(t.load.Nanoseconds()), float64(t.records)), "ns/record")
	m.set("driver.load_alloc_mb", t.loadMB, "MB")
	m.set("driver.run_s", t.run.Seconds(), "s")
	m.set("driver.run_host_ns_per_op", ratio(float64(t.run.Nanoseconds()), float64(t.winOps)), "ns/op")
	m.set("driver.run_alloc_mb", t.runMB, "MB")
	m.set("driver.rows_per_op", ratio(float64(t.drainedRows), float64(t.winOps)), "rows/op")
	var failed, attempted int64
	for _, r := range tr.results {
		failed += r.Errors + r.Timeouts
		attempted += r.Ops + r.Errors + r.Timeouts
	}
	m.set("driver.failed_frac", ratio(float64(failed), float64(attempted)), "ratio")

	m.set("stores.calls_read", float64(ctr.reads), "count")
	m.set("stores.calls_insert", float64(ctr.inserts), "count")
	m.set("stores.calls_update", float64(ctr.updates), "count")
	m.set("stores.calls_scan", float64(ctr.scans), "count")
	m.set("stores.errors", float64(ctr.errors), "count")
	m.set("stores.load_ns_per_record", ratio(float64(ctr.loadTime.Nanoseconds()), float64(ctr.loads)), "ns/record")
	m.set("stores.scan_rows_per_call", ratio(float64(ctr.rows), float64(ctr.scans)), "rows/call")
	m.set("stores.scan_drain_ns_per_row", ratio(float64(ctr.drainTime.Nanoseconds()), float64(ctr.rows)), "ns/row")
	m.set("stores.slab_bytes_per_record", ratio(float64(t.slab), float64(t.records)), "B/record")

	m.set("lsm.tables_positioned", float64(t.positioned), "count")
	m.set("lsm.tables_pruned", float64(t.pruned), "count")
	m.set("lsm.prune_ratio", ratio(float64(t.pruned), float64(t.positioned+t.pruned)), "ratio")

	m.set("sim.virtual_s", t.virtual.Seconds(), "sim_s") // modelled, not host, time
	m.set("sim.host_s_per_virtual_s", ratio(t.run.Seconds(), t.virtual.Seconds()), "s/s")
	m.set("sim.procs_left", float64(t.procsLeft), "count")
	m.set("sim.goroutines_leaked", float64(tr.leaked), "count")
	m.set("host.ref_sample_ms", median(append([]float64(nil), plain.Ref...))*1e3, "ms")
	tracedCPU := 0.0
	for _, s := range scaleCPU(seconds(tr.cpu), seconds(tr.ref)) {
		tracedCPU += s
	}
	ps, pr := plain.scaled()
	m.set("trace.overhead_frac", tracedCPU/(ps+pr)-1, "ratio")

	if err := runProbes(m); err != nil {
		return result{}, err
	}
	return result{Correct: correct, Attempted: 2, Metrics: m}, nil // the untraced and the traced pass
}
