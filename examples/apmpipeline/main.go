// APM pipeline: the paper's motivating scenario end to end. Monitoring
// agents on a fleet of hosts report measurements every 10 seconds into a
// HBase-backed metric store while an operator dashboard runs the §2
// online queries ("maximum number of connections on host X within the last
// 10 minutes", "average CPU utilization of Web servers of type Y").
//
//	go run ./examples/apmpipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/apm"
	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/hbase"
)

func main() {
	const (
		hosts          = 20  // monitored fleet
		metricsPerHost = 100 // metrics each agent reports
		intervalSec    = 10  // reporting interval (paper: ~10s)
		runSec         = 120 // simulated wall time
	)

	engine := sim.NewEngine(7)
	clust := cluster.New(engine, cluster.ClusterM(4).Scale(0.01))
	// HBase: its ordered regions make the §2 window queries exact (hash-
	// partitioned stores sample ranges node-locally).
	db := hbase.New(clust, hbase.Options{MemstoreFlushBytes: 160 << 10})

	fmt.Printf("ingest rate: %.0f measurements/sec (%d hosts x %d metrics / %ds)\n",
		apm.IngestRate(hosts, metricsPerHost, intervalSec), hosts, metricsPerHost, intervalSec)

	// One process per agent: report all metrics every interval.
	agents := make([]*apm.Agent, hosts)
	for h := 0; h < hosts; h++ {
		agents[h] = apm.NewAgent(fmt.Sprintf("Host%02d", h), metricsPerHost, intervalSec)
		agent := agents[h]
		engine.Go(agent.Host, func(p *sim.Proc) {
			for ts := int64(intervalSec); ts <= runSec; ts += intervalSec {
				// Align to the virtual clock: one interval of real time
				// passes between reports.
				for p.Now() < sim.Time(ts)*sim.Second {
					p.Sleep(sim.Time(ts)*sim.Second - p.Now())
				}
				for _, m := range agent.Report(ts, p.Rand().Float64) {
					if err := db.Insert(p, m.Key(), store.Fields(m.Fields())); err != nil {
						log.Printf("insert %s: %v", m.Metric, err)
					}
				}
			}
		})
	}

	// The dashboard's two §2 query classes, each one global group: the
	// maximum over one metric's window (its Max column), and the average
	// over the same metric kind on a group of hosts.
	connMax, err := query.Plan(query.Spec{Name: "conn-max", GroupBy: "none", Column: "max", Aggs: []string{"count", "max"}})
	if err != nil {
		log.Fatal(err)
	}
	cpuAvg, err := query.Plan(query.Spec{Name: "cpu-avg", GroupBy: "none", Aggs: []string{"count", "avg"}})
	if err != nil {
		log.Fatal(err)
	}
	// aggs runs q over ranges and returns its single group's aggregates
	// (zeros when no sample falls in the window).
	aggs := func(p *sim.Proc, q *query.Query, ranges []query.Range) (count, agg float64) {
		rows, err := q.Execute(p, db, ranges)
		if err != nil {
			log.Printf("%s query: %v", q.Spec.Name, err)
		}
		if len(rows) == 1 {
			return rows[0].Aggs[0], rows[0].Aggs[1]
		}
		return 0, 0
	}

	var connN, connPeak, cpuN, cpuMean float64
	engine.Go("dashboard", func(p *sim.Proc) {
		// Query half an interval after the last report, once its inserts
		// have landed; starting at the report instant itself would race
		// them and miss the newest sample.
		p.Sleep(sim.Time(runSec)*sim.Second + intervalSec*sim.Second/2)
		metric := agents[3].Metrics[1] // Host03 .../ConnectionCount
		connN, connPeak = aggs(p, connMax, []query.Range{{Metric: metric, From: runSec - 600, To: runSec}})
		// Average CPU across all "web servers" (hosts 0-9).
		var cpu []query.Range
		for h := 0; h < 10; h++ {
			cpu = append(cpu, query.Range{Metric: agents[h].Metrics[2], From: runSec - 900, To: runSec}) // CPUUtilization
		}
		cpuN, cpuMean = aggs(p, cpuAvg, cpu)
	})

	engine.Run(0)

	fmt.Printf("ingested %d measurement records (%.1f MB on disk)\n",
		int64(hosts*metricsPerHost*(runSec/intervalSec)), float64(db.DiskUsage())/1e6)
	fmt.Printf("Q1 max connections on Host03 over last 10 min: max=%.1f (%.0f samples)\n",
		connPeak, connN)
	fmt.Printf("Q2 avg CPU utilization of web servers over last 15 min: %.1f%% (%.0f samples)\n",
		cpuMean, cpuN)
	fmt.Printf("virtual time simulated: %v\n", engine.Now())
}
