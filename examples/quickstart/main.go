// Quickstart: deploy one store on a simulated cluster, load data, run a
// Table 1 workload, and print throughput and latencies.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stores/cassandra"
	"repro/internal/ycsb"
)

func main() {
	// A 4-node memory-bound cluster at 1/100 of the paper's hardware.
	const scale = 0.01
	engine := sim.NewEngine(1)
	defer engine.Close() // unwinds the commit-log flushers still parked at the end
	clust := cluster.New(engine, cluster.ClusterM(4).Scale(scale))

	// Deploy Cassandra with a flush threshold matching the scale.
	db := cassandra.New(clust, cassandra.Options{MemtableFlushBytes: 160 << 10})

	// Load 1/100 of the paper's 10M records per node.
	records := int64(4 * 10_000_000 * scale)
	if err := ycsb.Load(db, records); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d records across 4 nodes (%.1f MB on disk)\n",
		records, float64(db.DiskUsage())/1e6)

	// Run the APM insert stream (Workload W: 99% inserts) at full speed
	// with the paper's 128 connections per node.
	res, err := ycsb.Run(engine, ycsb.RunConfig{
		Store:          db,
		Workload:       ycsb.WorkloadW,
		Clients:        512,
		InitialRecords: records,
		Warmup:         500 * sim.Millisecond,
		Measure:        2 * sim.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	s := res.Summarize()
	fmt.Printf("workload W on cassandra/4 nodes:\n")
	fmt.Printf("  throughput: %.0f ops/sec\n", s.Throughput)
	fmt.Printf("  insert latency: mean=%v p95=%v p99=%v\n", s.Insert.Mean, s.Insert.P95, s.Insert.P99)
	fmt.Printf("  read latency:   mean=%v p95=%v p99=%v\n", s.Read.Mean, s.Read.P95, s.Read.P99)
	fmt.Printf("  errors: %d\n", s.Errors)
}
