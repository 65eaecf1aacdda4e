package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apm"
	"repro/internal/btree"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/lsm"
	"repro/internal/memtable"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/store"
	"repro/internal/ycsb"
)

// Layer probes drive one layer from a standalone engine with a single
// client Proc (or none), so a call's wall time is that layer's host cost.
// Inputs follow the workloads: hashed store.Key streams for what the
// ycsb-* workloads exercise, ascending APM grid keys for the ordered
// probes apm-dashboard exercises. Every probe reports allocations per
// operation beside its time, so an allocation fix shows as an exact count.

// probeRecords is the dataset size of the structure probes: 20k records,
// the total load of a 2-node quick cell (10k records per node).
const probeRecords = 20_000

// cost is one probe's host time and heap allocations per operation.
type cost struct{ ns, allocs float64 }

// timed runs fn, which performs n operations, and returns its per-op cost.
func timed(n int, fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return cost{float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// inProc times fn, performing n operations, inside one client Proc on e.
func inProc(e *sim.Engine, n int, fn func(p *sim.Proc)) cost {
	var c cost
	e.Go("probe", func(p *sim.Proc) { c = timed(n, func() { fn(p) }) })
	e.Run(0)
	return c
}

// put records a probe's time under name (in unit) and its allocations
// under allocsName.
func (m metrics) put(name, unit, allocsName, allocsUnit string, c cost) {
	m.set(name, c.ns, unit)
	m.set(allocsName, c.allocs, allocsUnit)
}

// hashedKeys are the first n keys of the YCSB load stream.
func hashedKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key(int64(i))
	}
	return keys
}

// orderedGrid is the first n measurements of the APM grid in load order
// (metric-major, timestamps ascending), as query.Dataset.Load writes them.
func orderedGrid(n int) (query.Dataset, []string, []store.Fields) {
	ds := query.SizeDataset(int64(n))
	var keys []string
	var fields []store.Fields
	for h := 0; h < ds.Hosts; h++ {
		for _, metric := range ds.HostMetrics(h) {
			for k := int64(0); k < ds.Intervals; k++ {
				m := apm.Measurement{Metric: metric, Timestamp: ds.BaseTs + k*ds.IntervalSec, Value: float64(k % 101)}
				keys = append(keys, m.Key())
				fields = append(fields, m.Fields())
			}
		}
	}
	return ds, keys, fields
}

// spread visits 0..n-1 in a fixed non-sequential order (n must not be a
// multiple of the stride's prime).
func spread(i, n int) int { return i * 7919 % n }

var probeOverhead = sstable.Overhead{PerEntry: 10, PerCell: 20}

func newTree(e *sim.Engine) *lsm.Tree {
	return lsm.New(lsm.Config{
		Node:       cluster.New(e, cluster.ClusterM(1)).Nodes[0],
		Seed:       1,
		FlushBytes: 1 << 17, // several sstable generations at probeRecords
		Overhead:   probeOverhead,
		CacheBytes: 1 << 30, // fully cached: CPU cost, not simulated I/O
	})
}

func runProbes(m metrics) error {
	hashed := hashedKeys(probeRecords)
	ds, ordered, orderedFields := orderedGrid(probeRecords)
	fields := store.MakeFields(1)

	// sim: one scheduled event, and one Proc.Sleep round trip.
	{
		const n = 200_000
		e := sim.NewEngine(1)
		fn := func() {}
		m.put("sim.schedule_ns", "ns", "sim.schedule_allocs", "allocs/op", timed(n, func() {
			for i := 0; i < n; i++ {
				e.Schedule(sim.Microsecond, fn)
				e.Run(0)
			}
		}))
	}
	{
		const n = 100_000
		m.put("sim.switch_ns", "ns", "sim.switch_allocs", "allocs/op", inProc(sim.NewEngine(1), n, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Microsecond)
			}
		}))
	}

	// memtable: fresh tables filled with each key stream, then point gets.
	const memReps = 5
	var mt *memtable.Memtable
	fill := func(keys []string, fs func(i int) store.Fields) cost {
		return timed(memReps*len(keys), func() {
			for r := 0; r < memReps; r++ {
				mt = memtable.New(1)
				for i, k := range keys {
					mt.Put(k, fs(i))
				}
			}
		})
	}
	m.put("memtable.put_ns_ordered", "ns", "memtable.put_allocs_ordered", "allocs/op",
		fill(ordered, func(i int) store.Fields { return orderedFields[i] }))
	m.put("memtable.put_ns_hashed", "ns", "memtable.put_allocs_hashed", "allocs/op",
		fill(hashed, func(int) store.Fields { return fields }))
	{
		const n = 200_000
		missing := 0
		c := timed(n, func() {
			for i := 0; i < n; i++ {
				if _, ok := mt.Get(hashed[spread(i, len(hashed))]); !ok {
					missing++
				}
			}
		})
		if missing > 0 {
			return fmt.Errorf("memtable probe: %d gets missed", missing)
		}
		m.put("memtable.get_ns", "ns", "memtable.get_allocs", "allocs/op", c)
	}

	// sstable: merge four tables cut from consecutive stretches of the
	// hashed stream, so each spans the keyspace like load-phase flushes.
	{
		const ways, reps = 4, 5
		var tables []*sstable.Table
		per := len(hashed) / ways
		for w := 0; w < ways; w++ {
			mem := memtable.New(int64(w))
			for _, k := range hashed[w*per : (w+1)*per] {
				mem.Put(k, fields)
			}
			tables = append(tables, sstable.FromMemtable(w+1, mem, probeOverhead, 0.01))
		}
		var merged *sstable.Table
		c := timed(reps*ways*per, func() {
			for r := 0; r < reps; r++ {
				merged = sstable.Merge(tables, probeOverhead, 0.01)
			}
		})
		if merged.Len() != ways*per {
			return fmt.Errorf("sstable probe: merged %d entries, want %d", merged.Len(), ways*per)
		}
		m.put("sstable.merge_ns_per_entry", "ns/entry", "sstable.merge_allocs_per_entry", "allocs/entry", c)
	}

	// lsm: multi-generation trees, point gets and 50-row scans over hashed
	// keys, 40-row per-metric range scans (a 10-minute window of 15 s
	// samples) over the ordered grid.
	{
		e := sim.NewEngine(1)
		tr := newTree(e)
		for _, k := range hashed {
			tr.LoadDirect(k, fields)
		}
		const gets = 50_000
		missing := 0
		m.put("lsm.get_ns", "ns", "lsm.get_allocs", "allocs/op", inProc(e, gets, func(p *sim.Proc) {
			for i := 0; i < gets; i++ {
				if _, ok := tr.Get(p, hashed[spread(i, len(hashed))]); !ok {
					missing++
				}
			}
		}))
		if missing > 0 {
			return fmt.Errorf("lsm probe: %d gets missed", missing)
		}
		const scans, length = 4_000, 50
		m.put("lsm.scan_ns_per_row_hashed", "ns/row", "lsm.scan_allocs_per_row_hashed", "allocs/row",
			inProc(e, scans*length, func(p *sim.Proc) {
				for i := 0; i < scans; i++ {
					cur := tr.ScanCursor(p, hashed[spread(i, len(hashed))])
					for j := 0; j < length && cur.Next(); j++ {
					}
				}
			}))
	}
	{
		e := sim.NewEngine(1)
		tr := newTree(e)
		for i, k := range ordered {
			tr.LoadDirect(k, orderedFields[i])
		}
		const scans, length = 5_000, 40
		series := len(ordered) / int(ds.Intervals)
		m.put("lsm.scan_ns_per_row_ordered", "ns/row", "lsm.scan_allocs_per_row_ordered", "allocs/row",
			inProc(e, scans*length, func(p *sim.Proc) {
				for i := 0; i < scans; i++ {
					// The start of series s's trailing window.
					s := spread(i, series)
					cur := tr.ScanCursor(p, ordered[(s+1)*int(ds.Intervals)-length])
					for j := 0; j < length && cur.Next(); j++ {
					}
				}
			}))
	}

	// btree: the MySQL deployment's page shape; bulk build, gets, inserts.
	{
		cfg := btree.Config{LeafCap: 94, InternalCap: 512}
		tr := btree.New(cfg)
		m.put("btree.bulk_ns_per_record", "ns/record", "btree.bulk_allocs_per_record", "allocs/record",
			timed(len(hashed), func() {
				for _, k := range hashed {
					tr.Load(k, fields)
				}
				tr.Len() // seals: the deferred build runs here
			}))
		const gets = 200_000
		missing := 0
		c := timed(gets, func() {
			for i := 0; i < gets; i++ {
				if _, ok, _ := tr.Get(hashed[spread(i, len(hashed))]); !ok {
					missing++
				}
			}
		})
		if missing > 0 {
			return fmt.Errorf("btree probe: %d gets missed", missing)
		}
		m.put("btree.get_ns", "ns", "btree.get_allocs", "allocs/op", c)
		fresh := make([]string, len(hashed))
		for i := range fresh {
			fresh[i] = store.Key(int64(len(hashed) + i))
		}
		m.put("btree.put_ns", "ns", "btree.put_allocs", "allocs/op", timed(len(fresh), func() {
			for _, k := range fresh {
				tr.Put(k, fields)
			}
		}))
	}

	if err := storeProbes(m); err != nil {
		return err
	}
	return queryProbes(m)
}

// storeProbes time each system's read, insert and scan from one client on
// a loaded one-node quick deployment.
func storeProbes(m metrics) error {
	const records, ops, scanLen = 10_000, 2_000, 50
	keys := hashedKeys(records + ops)
	for _, sys := range harness.AllSystems {
		dep, err := harness.Deploy(1, sys, cluster.ClusterM(1), 0.001)
		if err != nil {
			return err
		}
		if err := ycsb.LoadSized(dep.Store, records, store.FieldBytes); err != nil {
			return err
		}
		var read, insert, scan cost
		var failed error
		scans := dep.Store.Caps().Scans
		var buf store.Fields
		dep.Engine.Go("probe", func(p *sim.Proc) {
			read = timed(ops, func() {
				for i := 0; i < ops && failed == nil; i++ {
					_, failed = dep.Store.Read(p, keys[spread(i, records)])
				}
			})
			insert = timed(ops, func() {
				for i := 0; i < ops && failed == nil; i++ {
					buf = store.FillFields(buf, int64(records+i), store.FieldBytes)
					failed = dep.Store.Insert(p, keys[records+i], buf)
				}
			})
			if !scans {
				return
			}
			scan = timed(ops, func() {
				for i := 0; i < ops && failed == nil; i++ {
					var cur store.Cursor
					if cur, failed = dep.Store.Scan(p, keys[spread(i, records)], scanLen); failed == nil {
						for cur.Next() {
						}
						failed = cur.Close()
					}
				}
			})
		})
		dep.Engine.Run(0)
		if failed != nil {
			return fmt.Errorf("%s store probe: %w", sys, failed)
		}
		pre := "stores." + string(sys) + "."
		m.put(pre+"read_host_ns", "ns", pre+"read_allocs", "allocs/op", read)
		m.put(pre+"insert_host_ns", "ns", pre+"insert_allocs", "allocs/op", insert)
		if scans {
			m.put(pre+"scan_host_ns", "ns", pre+"scan_allocs", "allocs/op", scan)
		}
	}
	return nil
}

// queryProbes time each dashboard panel of harness.APMDashboard from one
// client on a one-node cassandra deployment holding the APM grid.
func queryProbes(m metrics) error {
	const n = 40
	dep, err := harness.Deploy(1, harness.Cassandra, cluster.ClusterM(1), 0.001)
	if err != nil {
		return err
	}
	ds := query.SizeDataset(10_000)
	if err := ds.Load(dep.Store); err != nil {
		return err
	}
	for _, spec := range harness.APMDashboard(nil).Queries {
		q, err := query.Plan(spec)
		if err != nil {
			return err
		}
		from, to := ds.Window(q.Spec.WindowSec)
		var failed error
		c := inProc(dep.Engine, n, func(p *sim.Proc) {
			for i := 0; i < n && failed == nil; i++ {
				_, failed = q.Execute(p, dep.Store, ds.HostRanges(i%ds.Hosts, from, to))
			}
		})
		if failed != nil {
			return fmt.Errorf("query probe %s: %w", spec.Name, failed)
		}
		c.ns /= 1e3
		m.put("query."+spec.Name+"_host_us", "us", "query."+spec.Name+"_allocs", "allocs/op", c)
	}
	return nil
}
