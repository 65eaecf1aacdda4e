package harness

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stats"
)

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

// TestExecuteTearsDownDeployment runs one cell per system, a fault cell
// and a query cell through Runner.execute and checks that each leaves
// nothing behind: no live Proc or pending event on its engine, every
// cluster resource balanced, and the process's goroutine count back at
// its baseline. Without teardown, the WAL and commit-log flushers of
// cassandra, voldemort and mysql stay parked after every cell.
func TestExecuteTearsDownDeployment(t *testing.T) {
	mix := query.Mix{{Name: "overview", WindowSec: 600}}
	if err := mix.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells := []Cell{
		{System: Cassandra, Nodes: 3, Workload: "W", Faults: "kill-node@1[0.3:0.6]"},
		{System: Cassandra, Nodes: 3, Queries: mix.String()},
	}
	for _, sys := range AllSystems {
		cells = append(cells, Cell{System: sys, Nodes: 3, Workload: "R"})
	}
	r := NewRunner(testCfg())
	base := settledGoroutines()
	for _, c := range cells {
		key := r.key(c)
		var dep *Deployment
		if _, err := r.execute(c, key, 0, func(d *Deployment, _ *stats.Collector) { dep = d }); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if n := dep.Engine.Procs(); n != 0 {
			t.Errorf("%s: %d Procs left after execute", key, n)
		}
		if n := dep.Engine.Pending(); n != 0 {
			t.Errorf("%s: %d events left after execute", key, n)
		}
		for i, node := range dep.Clust.Nodes {
			res := append([]*sim.Resource{node.CPU, node.NIC}, node.DiskRes...)
			for _, rs := range res {
				if rs.InUse() != 0 || rs.QueueLen() != 0 {
					t.Errorf("%s: node %d %s holds %d units with %d waiters",
						key, i, rs.Name(), rs.InUse(), rs.QueueLen())
				}
			}
		}
		if got := settledGoroutines(); got != base {
			t.Errorf("%s: %d goroutines after execute, baseline %d", key, got, base)
		}
	}
}
