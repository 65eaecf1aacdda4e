// Package harness defines the paper's experiments: it deploys each store on
// a simulated cluster, drives the YCSB workloads against it, and regenerates
// every figure and table of the evaluation section (Figs 3–20, Table 1).
//
// Scaling: record counts and node RAM/disk are multiplied by Config.Scale
// (default 1/100), preserving the dataset-to-memory ratios that make
// Cluster M memory-bound and Cluster D disk-bound. Disk usage results are
// divided by Scale again so Fig 17 reports paper-scale gigabytes.
package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/cassandra"
	"repro/internal/stores/hbase"
	"repro/internal/stores/mysql"
	"repro/internal/stores/redis"
	"repro/internal/stores/voldemort"
	"repro/internal/stores/voltdb"
	"repro/internal/ycsb"
)

// System names one of the six benchmarked stores.
type System string

// The benchmarked systems.
const (
	Cassandra System = "cassandra"
	HBase     System = "hbase"
	Voldemort System = "voldemort"
	Redis     System = "redis"
	VoltDB    System = "voltdb"
	MySQL     System = "mysql"
)

// AllSystems lists every system in the paper's plotting order.
var AllSystems = []System{Cassandra, HBase, Voldemort, VoltDB, Redis, MySQL}

// ScanSystems is AllSystems minus Voldemort, whose YCSB client had no scan
// support (§5.4).
var ScanSystems = []System{Cassandra, HBase, VoltDB, Redis, MySQL}

// DiskSystems are the systems with on-disk footprints (Fig 17 excludes the
// in-memory Redis and VoltDB).
var DiskSystems = []System{Cassandra, HBase, Voldemort, MySQL}

// ClusterDSystems are the systems evaluated on the disk-bound cluster
// (§5.8: Redis and VoltDB cannot spill to disk; MySQL was omitted for
// cluster availability).
var ClusterDSystems = []System{Cassandra, HBase, Voldemort}

// Deployment is a deployed store plus its cluster.
type Deployment struct {
	Engine *sim.Engine
	Clust  *cluster.Cluster
	Store  store.Store
}

// Close tears the deployment down once its measurements are read: every
// process still blocked on its engine (the WAL and commit-log flushers
// above all) is killed and unwound, and pending events are dropped. The
// deployment must not be driven afterwards.
func (d *Deployment) Close() { d.Engine.Close() }

// Deploy builds a cluster from spec (hardware scaled by scale) and deploys
// the system on it with scale-adjusted engine thresholds.
func Deploy(seed int64, sys System, spec cluster.Spec, scale float64) (*Deployment, error) {
	return DeployVariants(seed, sys, spec, scale, "")
}

// Variant vocabulary: a cell's Variants field is an ordered comma-separated
// list of key=value tuning options resolved against the system's deployment
// defaults. Unknown keys or values for the target system are errors, so a
// scenario cannot silently benchmark the default configuration. Supported:
//
//	cassandra: tokens=random|optimal, commitlog=off|<ms>,
//	           replication=<n>, consistency=one|all|<n>,
//	           compression=on|off, compaction-threshold=<n>
//	hbase:     autoflush=on|off, compaction-threshold=<n>, batch-size=<n>
//	redis:     sharding=balanced|ring
//	voltdb:    async=on|off, sites-per-host=<n>
//	mysql:     binlog=on|off
//	any:       conns=<per-node client connections> (resolved by the
//	           runner, not the store)
//
// compaction-threshold=<n> sets the LSM stores' size-tiered compaction
// trigger — sstables per tier before a merge (Cassandra's
// min_compaction_threshold, HBase's hbase.hstore.compactionThreshold; the
// paper's default is 4, and n must be at least 2). Lower values compact
// eagerly (fewer runs to read, more write amplification); higher values
// let tiers grow.
//
// batch-size=<n> sets HBase's client write buffer in records (the paper's
// deferred-autoflush batching; n must be at least 1, default 128): every
// n-th put pays the flush RPC, so smaller buffers trade throughput for
// freshness. It only matters with autoflush off (the default), where the
// client batches; with autoflush=on every put is its own RPC regardless.
//
// sites-per-host=<n> sets VoltDB's single-threaded partition count per
// host (the paper's sites_per_host, default 6; n must be at least 1).
// It moves the partition ring, so keys hash to different sites and
// multi-partition fan-out spreads across a different executor count.
//
// An empty Variants string is the paper's configuration; such cells share
// cache entries (and seeds) with the corresponding figure cells.

// parseVariants splits "k1=v1,k2=v2" into ordered pairs.
func parseVariants(s string) ([][2]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([][2]string, 0, len(parts))
	for _, part := range parts {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("harness: malformed variant %q (want key=value)", part)
		}
		out = append(out, [2]string{k, v})
	}
	return out, nil
}

// variantInt extracts an integer-valued variant by key.
func variantInt(variants, key string) (int, bool, error) {
	kvs, err := parseVariants(variants)
	if err != nil {
		return 0, false, err
	}
	for _, kv := range kvs {
		if kv[0] != key {
			continue
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n <= 0 {
			return 0, false, fmt.Errorf("harness: variant %s=%s is not a positive integer", key, kv[1])
		}
		return n, true, nil
	}
	return 0, false, nil
}

// onOff parses an on/off variant value.
func onOff(key, v string) (bool, error) {
	switch v {
	case "on":
		return true, nil
	case "off":
		return false, nil
	}
	return false, fmt.Errorf("harness: variant %s=%s: want on or off", key, v)
}

// DeployVariants is Deploy with declarative key=value tuning options (see
// the variant vocabulary above) resolved into the system's deployment
// options. This is the single construction path for every experiment cell:
// figures (empty variants), ablations, and user scenarios.
func DeployVariants(seed int64, sys System, spec cluster.Spec, scale float64, variants string) (*Deployment, error) {
	kvs, err := parseVariants(variants)
	if err != nil {
		return nil, err
	}
	// conns is harness-scope (client-side connection count): the runner
	// sizes the simulated client pool from it, and only MySQL's model
	// consumes it server-side (per-connection thread overhead).
	clients := 0
	storeKVs := kvs[:0:0]
	for _, kv := range kvs {
		if kv[0] == "conns" {
			perNode, _, err := variantInt(variants, "conns")
			if err != nil {
				return nil, err
			}
			clients = perNode * spec.Nodes
			continue
		}
		storeKVs = append(storeKVs, kv)
	}
	e := sim.NewEngine(seed)
	c := cluster.New(e, spec.Scale(scale))
	var s store.Store
	switch sys {
	case Cassandra:
		s, err = deployCassandra(c, scale, storeKVs)
	case HBase:
		s, err = deployHBase(c, scale, storeKVs)
	case Voldemort:
		s, err = deployVoldemort(c, storeKVs)
	case Redis:
		s, err = deployRedis(c, scale, storeKVs)
	case VoltDB:
		s, err = deployVoltDB(c, storeKVs)
	case MySQL:
		s, err = deployMySQL(c, spec, scale, clients, storeKVs)
	default:
		return nil, fmt.Errorf("harness: unknown system %q", sys)
	}
	if err != nil {
		return nil, err
	}
	return &Deployment{Engine: e, Clust: c, Store: s}, nil
}

func deployCassandra(c *cluster.Cluster, scale float64, kvs [][2]string) (store.Store, error) {
	opts := cassandra.Options{MemtableFlushBytes: scaleBytes(16<<20, scale)}
	consistency := ""
	for _, kv := range kvs {
		k, v := kv[0], kv[1]
		switch k {
		case "tokens":
			switch v {
			case "random":
				opts.RandomTokens = true
			case "optimal":
				opts.RandomTokens = false
			default:
				return nil, fmt.Errorf("harness: cassandra variant tokens=%s: want random or optimal", v)
			}
		case "commitlog":
			if v == "off" {
				// Periodic mode: writers acknowledge before the group
				// commit syncs instead of waiting out the batch window.
				opts.CommitLogPeriodic = true
				continue
			}
			ms, err := strconv.Atoi(v)
			if err != nil || ms <= 0 {
				return nil, fmt.Errorf("harness: cassandra variant commitlog=%s: want off or a batch window in ms", v)
			}
			opts.CommitLogWindow = sim.Time(ms) * sim.Millisecond
		case "replication":
			rf, err := strconv.Atoi(v)
			if err != nil || rf < 1 {
				return nil, fmt.Errorf("harness: cassandra variant replication=%s: want a positive factor", v)
			}
			opts.ReplicationFactor = rf
		case "consistency":
			consistency = v
		case "compression":
			on, err := onOff(k, v)
			if err != nil {
				return nil, err
			}
			opts.Compression = on
		case "compaction-threshold":
			n, err := strconv.Atoi(v)
			if err != nil || n < 2 {
				return nil, fmt.Errorf("harness: cassandra variant compaction-threshold=%s: want an integer >= 2", v)
			}
			opts.CompactMin = n
		default:
			return nil, fmt.Errorf("harness: cassandra does not support variant %q", k)
		}
	}
	if consistency != "" {
		rf := opts.ReplicationFactor
		if rf == 0 {
			rf = 1
		}
		switch consistency {
		case "one":
			opts.WriteConsistency = 1
		case "all":
			opts.WriteConsistency = rf
		default:
			cl, err := strconv.Atoi(consistency)
			if err != nil || cl < 1 || cl > rf {
				return nil, fmt.Errorf("harness: cassandra variant consistency=%s: want one, all, or 1..replication", consistency)
			}
			opts.WriteConsistency = cl
		}
	}
	return cassandra.New(c, opts), nil
}

func deployHBase(c *cluster.Cluster, scale float64, kvs [][2]string) (store.Store, error) {
	opts := hbase.Options{MemstoreFlushBytes: scaleBytes(16<<20, scale)}
	for _, kv := range kvs {
		switch kv[0] {
		case "autoflush":
			on, err := onOff(kv[0], kv[1])
			if err != nil {
				return nil, err
			}
			opts.AutoFlush = on
		case "compaction-threshold":
			n, err := strconv.Atoi(kv[1])
			if err != nil || n < 2 {
				return nil, fmt.Errorf("harness: hbase variant compaction-threshold=%s: want an integer >= 2", kv[1])
			}
			opts.CompactMin = n
		case "batch-size":
			n, err := strconv.Atoi(kv[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("harness: hbase variant batch-size=%s: want an integer >= 1", kv[1])
			}
			opts.BatchRecords = n
		default:
			return nil, fmt.Errorf("harness: hbase does not support variant %q", kv[0])
		}
	}
	return hbase.New(c, opts), nil
}

func deployVoldemort(c *cluster.Cluster, kvs [][2]string) (store.Store, error) {
	if len(kvs) > 0 {
		return nil, fmt.Errorf("harness: voldemort does not support variant %q", kvs[0][0])
	}
	return voldemort.New(c, voldemort.Options{BDBCacheFraction: 0.75}), nil
}

func deployRedis(c *cluster.Cluster, scale float64, kvs [][2]string) (store.Store, error) {
	opts := redis.Options{MemScale: scale}
	for _, kv := range kvs {
		switch kv[0] {
		case "sharding":
			switch kv[1] {
			case "balanced":
				opts.Balanced = true
			case "ring":
				opts.Balanced = false
			default:
				return nil, fmt.Errorf("harness: redis variant sharding=%s: want balanced or ring", kv[1])
			}
		default:
			return nil, fmt.Errorf("harness: redis does not support variant %q", kv[0])
		}
	}
	return redis.New(c, opts), nil
}

func deployVoltDB(c *cluster.Cluster, kvs [][2]string) (store.Store, error) {
	opts := voltdb.Options{}
	for _, kv := range kvs {
		switch kv[0] {
		case "async":
			on, err := onOff(kv[0], kv[1])
			if err != nil {
				return nil, err
			}
			opts.Async = on
		case "sites-per-host":
			n, err := strconv.Atoi(kv[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("harness: voltdb variant sites-per-host=%s: want an integer >= 1", kv[1])
			}
			opts.SitesPerHost = n
		default:
			return nil, fmt.Errorf("harness: voltdb does not support variant %q", kv[0])
		}
	}
	return voltdb.New(c, opts), nil
}

func deployMySQL(c *cluster.Cluster, spec cluster.Spec, scale float64, clients int, kvs [][2]string) (store.Store, error) {
	if clients == 0 {
		clients = Conns(MySQL, spec.Nodes, false)
	}
	opts := mysql.Options{
		BinLog: true,
		// ClientThreads drives the model's per-connection server
		// overhead; it must track the actual simulated client count,
		// including a conns= variant override.
		ClientThreads: clients,
		ScaleComp:     1 / scale,
	}
	for _, kv := range kvs {
		switch kv[0] {
		case "binlog":
			on, err := onOff(kv[0], kv[1])
			if err != nil {
				return nil, err
			}
			opts.BinLog = on
		default:
			return nil, fmt.Errorf("harness: mysql does not support variant %q", kv[0])
		}
	}
	return mysql.New(c, opts), nil
}

func scaleBytes(b int64, scale float64) int64 {
	v := int64(float64(b) * scale)
	if v < 4<<10 {
		v = 4 << 10
	}
	return v
}

// Conns returns the connection count for a system on a cluster, encoding
// the paper's client tuning (§3, §6):
//
//   - 128 connections per server node on Cluster M, 8 per node (2 per core)
//     on Cluster D for Cassandra, HBase and VoltDB;
//   - Voldemort's client pool was tuned down hard, bounding in-flight
//     requests per node;
//   - the Redis and MySQL sharded clients needed fewer threads per client
//     as node counts grew ("we were forced to use a smaller number of
//     threads"), which is also why their latencies fall with scale.
func Conns(sys System, nodes int, clusterD bool) int {
	if clusterD {
		return 8 * nodes
	}
	switch sys {
	case Voldemort:
		return 3 * nodes
	case Redis:
		return 128 + 16*(nodes-1)
	case MySQL:
		return 128 + 40*(nodes-1)
	default:
		return 128 * nodes
	}
}

// SupportsScans reports, before deploying, whether the system's store
// implements Scan (store.Caps.Scans): the paper's Voldemort YCSB client had
// no scan support (§5.4). Scans also gate the analytic query layer, whose
// operator pipeline reads through the cursor scan path.
func SupportsScans(sys System) bool { return sys != Voldemort }

// SupportsWorkload reports whether the system can run the workload mix:
// scan mixes exclude Voldemort. Update mixes run on all six systems — the
// B-tree stores model read-modify-write updates.
func SupportsWorkload(sys System, wl ycsb.Workload) bool {
	return !wl.HasScans() || SupportsScans(sys)
}
