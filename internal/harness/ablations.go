package harness

import "fmt"

// Ablations compare a paper-documented design choice against its
// alternative; each row of the table below notes the paper observation it
// reproduces. Every ablation plans like a figure, each cell carrying the
// design choice as a Variants string resolved by DeployVariants, and
// executes through Runner.RunAll. That buys the ablations the figures'
// execution contract for free: the singleflight cell cache (cells shared
// with figures or between ablations — e.g. the paper-default series —
// measure once per runner), stable hashed seeds (results are
// schedule-independent, so -parallel N output is byte-identical),
// plan-ordered progress lines, and Prewarm batching across
// `-figure ablation-all`.
//
// Behavior note: moving the ablations onto the hashed per-cell seed scheme
// (seed = hash(Cfg.Seed, cell key, rep), replacing the fixed Cfg.Seed the
// old closure-built variant runner used) shifted every ablation's numbers
// once, the same one-time shift the figures took in PR 2.

// ablation declares one design-choice ablation on one system: lines of
// cells, each line plotted once per metric.
type ablation struct {
	id, title, xLabel, yLabel string
	sys                       System
	workload                  string // "" plans load-only cells: disk usage needs no run
	// A node sweep plots one line per variant over the configured node
	// counts of at least minNodes.
	variants []variant
	minNodes int
	// A knob sweep plots one line on knobNodes nodes instead, with the
	// variant knob=v at X = v for each value.
	knob      string
	knobNodes int
	values    []int
	// metrics plots each line once per metric, labeled the metric's label
	// followed by the line's.
	metrics []labeledMetric
}

type variant struct{ label, variants string }

type labeledMetric struct {
	label string
	m     metric
}

var tputOnly = []labeledMetric{{"", throughputMetric}}

// ablations lists every ablation in display order.
var ablations = []ablation{
	// Cassandra, §6: random tokens "frequently resulted in a highly
	// unbalanced workload"; placement is moot on one node.
	{id: "ablation-cassandra-tokens", title: "Cassandra: optimal vs random token assignment (Workload R)",
		xLabel: "nodes", yLabel: "ops/sec", sys: Cassandra, workload: "R", minNodes: 2,
		variants: []variant{{"optimal-tokens", ""}, {"random-tokens", "tokens=random"}}, metrics: tputOnly},
	// Cassandra: sweep the batch group-commit window writers wait for,
	// isolating the source of Cassandra's high write latency in the
	// reproduction.
	{id: "ablation-cassandra-commitlog", title: "Cassandra: commit log batch window vs write latency (Workload RW, 4 nodes)",
		xLabel: "window ms", yLabel: "write latency ms", sys: Cassandra, workload: "RW",
		knob: "commitlog", knobNodes: 4, values: []int{2, 5, 10, 18, 30},
		metrics: []labeledMetric{{"write-latency", writeLatMetric}}},
	// Cassandra, §8 future work: RF=1 (the paper's unreplicated run, so the
	// default deployment) vs RF=3 at consistency ONE and ALL; RF=3 needs at
	// least 3 nodes for distinct replicas.
	{id: "ablation-cassandra-replication", title: "Cassandra: replication factor vs throughput (Workload W)",
		xLabel: "nodes", yLabel: "ops/sec", sys: Cassandra, workload: "W", minNodes: 3,
		variants: []variant{{"rf1", ""}, {"rf3-one", "replication=3,consistency=one"}, {"rf3-all", "replication=3,consistency=all"}},
		metrics:  tputOnly},
	// Cassandra, §5.7: "the disk usage can be reduced by using compression
	// which, however, will decrease the throughput". Each variant plots a
	// throughput and a disk series from the same cells.
	{id: "ablation-cassandra-compression", title: "Cassandra: compression off vs on (Workload R, disk + throughput)",
		xLabel: "nodes", yLabel: "ops/sec (tput series) / GB (disk series)", sys: Cassandra, workload: "R",
		variants: []variant{{"off", ""}, {"on", "compression=on"}},
		metrics:  []labeledMetric{{"tput-", throughputMetric}, {"disk-", diskGBMetric}}},
	// §8 tuning observation: too few client connections leave a 4-node
	// Cassandra cluster underutilized, too many congest it and inflate
	// latency without throughput gains.
	{id: "ablation-connections", title: "Connections per node vs throughput and read latency (Cassandra, 4 nodes, Workload R)",
		xLabel: "conns/node", yLabel: "ops/sec (tput) / ms (latency)", sys: Cassandra, workload: "R",
		knob: "conns", knobNodes: 4, values: []int{8, 32, 64, 128, 256, 512},
		metrics: []labeledMetric{{"throughput", throughputMetric}, {"read-latency-ms", readLatMetric}}},
	// HBase: the client write buffer (deferred flush) against per-put RPCs
	// on the write-heavy workload.
	{id: "ablation-hbase-autoflush", title: "HBase: client write buffer vs autoflush (Workload W)",
		xLabel: "nodes", yLabel: "ops/sec", sys: HBase, workload: "W",
		variants: []variant{{"write-buffer", ""}, {"autoflush", "autoflush=on"}}, metrics: tputOnly},
	// MySQL, §5.7: "without this feature the disk usage is essentially
	// reduced by half".
	{id: "ablation-mysql-binlog", title: "MySQL: disk usage with and without binary log",
		xLabel: "nodes", yLabel: "GB (paper scale)", sys: MySQL,
		variants: []variant{{"binlog-on", ""}, {"binlog-off", "binlog=off"}},
		metrics:  []labeledMetric{{"", diskGBMetric}}},
	// Redis, §5.1: with the Jedis ring "the data distribution is
	// unbalanced".
	{id: "ablation-redis-sharding", title: "Redis: Jedis ring vs balanced sharding (Workload R)",
		xLabel: "nodes", yLabel: "ops/sec", sys: Redis, workload: "R",
		variants: []variant{{"jedis-ring", ""}, {"balanced", "sharding=balanced"}}, metrics: tputOnly},
	// VoltDB, §6: Hugg's asynchronous benchmark "achieved a speed-up with a
	// fixed sized database", unlike the paper's synchronous client.
	{id: "ablation-voltdb-async", title: "VoltDB: synchronous vs asynchronous client (Workload R)",
		xLabel: "nodes", yLabel: "ops/sec", sys: VoltDB, workload: "R",
		variants: []variant{{"sync-client", ""}, {"async-client", "async=on"}}, metrics: tputOnly},
}

// AblationOrder lists ablation IDs in display order.
var AblationOrder = func() []string {
	ids := make([]string, len(ablations))
	for i, a := range ablations {
		ids[i] = a.id
	}
	return ids
}()

// plan lays the ablation's lines out under cfg.
func (a ablation) plan(cfg Config) plan {
	var lines []planSeries
	if a.knob != "" {
		var l planSeries
		for _, v := range a.values {
			l.cells = append(l.cells, Cell{System: a.sys, Nodes: a.knobNodes, Workload: a.workload,
				Variants: fmt.Sprintf("%s=%d", a.knob, v)})
			l.xs = append(l.xs, float64(v))
		}
		lines = append(lines, l)
	}
	var nodes []int
	for _, n := range cfg.NodeCounts {
		if n >= a.minNodes {
			nodes = append(nodes, n)
		}
	}
	for _, v := range a.variants {
		lines = append(lines, nodeSeries(v.label, nodes, nil, func(n int) Cell {
			return Cell{System: a.sys, Nodes: n, Workload: a.workload, LoadOnly: a.workload == "", Variants: v.variants}
		}))
	}
	p := plan{id: a.id, title: a.title, xLabel: a.xLabel, yLabel: a.yLabel}
	for _, l := range lines {
		for _, m := range a.metrics {
			s := l
			s.label, s.m = m.label+l.label, m.m
			p.series = append(p.series, s)
		}
	}
	return p
}
