// Command apmquery demonstrates the APM online-query path (§2): it ingests
// a stream of agent measurements into a chosen store and answers
// sliding-window queries against it through the query layer.
//
//	apmquery -system hbase -hosts 20 -window 600
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apm"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	var (
		system  = flag.String("system", "hbase", "store to ingest into (ordered stores give exact windows; hash-partitioned ones scan node-locally)")
		hosts   = flag.Int("hosts", 20, "monitored hosts")
		metrics = flag.Int("metrics", 100, "metrics per host")
		seconds = flag.Int64("seconds", 300, "virtual seconds of ingest")
		window  = flag.Int64("window", 600, "query window, seconds")
	)
	flag.Parse()

	dep, err := harness.Deploy(11, harness.System(*system), cluster.ClusterM(4), 0.01)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apmquery:", err)
		os.Exit(1)
	}
	defer dep.Close()
	if !dep.Store.Caps().Scans {
		fmt.Fprintf(os.Stderr, "apmquery: %s has no scan support; window queries need scans\n", *system)
		os.Exit(1)
	}

	// The §2 "maximum number of connections on host X within the last 10
	// minutes" query: one global group over the window's Max column.
	windowMax, err := query.Plan(query.Spec{Name: "window", GroupBy: "none", Column: "max", Aggs: []string{"count", "max"}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "apmquery:", err)
		os.Exit(1)
	}

	const interval = 10
	agents := make([]*apm.Agent, *hosts)
	for h := range agents {
		agents[h] = apm.NewAgent(fmt.Sprintf("Host%03d", h), *metrics, interval)
		agent := agents[h]
		dep.Engine.Go(agent.Host, func(p *sim.Proc) {
			for ts := int64(interval); ts <= *seconds; ts += interval {
				for p.Now() < sim.Time(ts)*sim.Second {
					p.Sleep(sim.Time(ts)*sim.Second - p.Now())
				}
				for _, m := range agent.Report(ts, p.Rand().Float64) {
					if err := dep.Store.Insert(p, m.Key(), store.Fields(m.Fields())); err != nil {
						fmt.Fprintf(os.Stderr, "insert: %v\n", err)
					}
				}
			}
		})
	}

	dep.Engine.Go("queries", func(p *sim.Proc) {
		// Start half an interval after the last report so the windows see
		// its inserts instead of queueing behind them.
		p.Sleep(sim.Time(*seconds)*sim.Second + interval*sim.Second/2)
		for h := 0; h < 3 && h < len(agents); h++ {
			metric := agents[h].Metrics[0]
			qStart := p.Now()
			rows, err := windowMax.Execute(p, dep.Store, []query.Range{{Metric: metric, From: *seconds - *window, To: *seconds}})
			if err != nil {
				fmt.Fprintf(os.Stderr, "window: %v\n", err)
				continue
			}
			var count, peak float64 // an empty window has no group row
			if len(rows) == 1 {
				count, peak = rows[0].Aggs[0], rows[0].Aggs[1]
			}
			fmt.Printf("window(%s, last %ds): count=%.0f max=%.1f  [query latency %v]\n",
				metric, *window, count, peak, p.Now()-qStart)
		}
	})

	dep.Engine.Run(0)
	fmt.Printf("ingested %.1f MB across 4 nodes in %v virtual time (%s)\n",
		float64(dep.Store.DiskUsage())/1e6, dep.Engine.Now(), *system)
}
