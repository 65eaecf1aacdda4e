// Package mysql models the paper's MySQL setup (§4.6): independent
// single-node MySQL servers with InnoDB, sharded on the client side by the
// YCSB RDBMS client's hash ("which connects to the databases using JDBC and
// shards the data using a consistent hashing algorithm" — well balanced,
// unlike Jedis). Each server runs a B+tree with a buffer pool sized to the
// node's memory and writes a binary log, which the paper found doubles the
// disk footprint (§5.7).
//
// Scans reproduce the paper's pathology (§5.4–§5.5): the sharded client
// translates a scan into per-shard "SELECT ... WHERE key >= ?" queries
// issued sequentially, and InnoDB's MVCC makes range reads degrade when
// concurrent inserts pile up unpurged row versions. With 6% inserts
// (Workload RS) scans stay usable on small clusters; with 50% inserts
// (Workload RSW) version-chain traversal collapses throughput to a few
// operations per second, and fan-out over more shards multiplies the cost.
package mysql

import (
	"sort"

	"repro/internal/btree"
	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/base"
	"repro/internal/wal"
)

// Options tunes the model.
type Options struct {
	ReadCPU  sim.Time // server-side point SELECT cost (parse, plan, btree)
	WriteCPU sim.Time // INSERT cost before log/btree I/O
	// UpdateCPU is the server-side cost of an in-place UPDATE ... WHERE
	// key = ?: one statement that locates the row and rewrites it, so it
	// lands between ReadCPU (it skips result serialization) and
	// ReadCPU+WriteCPU (parse/plan and the index descent are paid once,
	// not twice).
	UpdateCPU sim.Time
	// ScanRowCPU is the per-visited-row cost of a range SELECT.
	ScanRowCPU sim.Time
	// TailRowCPU is the per-row cost of the sharded client's unbounded
	// "key >= start" scan, which materializes the table tail until the
	// client abandons the cursor (§5.4: "in the case of MySQL this is
	// inefficient").
	TailRowCPU sim.Time
	// VersionRowCPU is the extra cost per unpurged row version traversed
	// by a range read (MVCC read view checks).
	VersionRowCPU sim.Time
	// PurgeInterval is how often the background purge runs.
	PurgeInterval sim.Time
	// PurgeCapPerSec bounds how many row versions the purge thread clears
	// per second. Insert rates above it grow an unbounded history backlog
	// that range reads must traverse — the runaway that collapses Workload
	// RSW (50% inserts) while leaving Workload RS (6% inserts) healthy.
	PurgeCapPerSec int64
	// ScaleComp converts scaled structure sizes back to paper-equivalent
	// row counts for the tail-scan cost (the harness passes 1/scale), so
	// scan costs are invariant under dataset scaling.
	ScaleComp float64
	// BinLog enables the binary log (paper default on; ablation off).
	BinLog bool
	// BufferPoolFraction of node RAM given to InnoDB.
	BufferPoolFraction float64
	// LeafCap encodes rows per 16K page (~94 for 75-byte rows with InnoDB
	// row overhead and a ~70% fill factor -> 2.5 GB of table for 10M rows;
	// the binlog doubles it to the ~5 GB/node of Fig 17).
	LeafCap int
	// ClientThreads is the total number of YCSB threads. Every client
	// thread holds a JDBC connection to every server (§6), so each server
	// pays per-operation thread/connection management overhead that grows
	// with the whole cluster's client count — one reason MySQL's scaling
	// flattens near 8-12 nodes.
	ClientThreads int
	// PerThreadCPU is that per-operation overhead per client thread.
	PerThreadCPU sim.Time
}

func (o *Options) defaults() {
	if o.ReadCPU == 0 {
		o.ReadCPU = 290 * sim.Microsecond
	}
	if o.WriteCPU == 0 {
		o.WriteCPU = 330 * sim.Microsecond
	}
	if o.UpdateCPU == 0 {
		o.UpdateCPU = 370 * sim.Microsecond
	}
	if o.ScanRowCPU == 0 {
		o.ScanRowCPU = 900 * sim.Nanosecond
	}
	if o.TailRowCPU == 0 {
		o.TailRowCPU = 40 * sim.Nanosecond
	}
	if o.VersionRowCPU == 0 {
		o.VersionRowCPU = 1 * sim.Microsecond
	}
	if o.PurgeInterval == 0 {
		o.PurgeInterval = sim.Second
	}
	if o.PurgeCapPerSec == 0 {
		o.PurgeCapPerSec = 5000
	}
	if o.ScaleComp == 0 {
		o.ScaleComp = 1
	}
	if o.BufferPoolFraction == 0 {
		o.BufferPoolFraction = 0.8
	}
	if o.LeafCap == 0 {
		o.LeafCap = 94
	}
	if o.PerThreadCPU == 0 {
		o.PerThreadCPU = 500 * sim.Nanosecond
	}
}

// connOverhead is the per-op server cost of managing all client connections.
func (o *Options) connOverhead() sim.Time {
	return sim.Time(o.ClientThreads) * o.PerThreadCPU
}

// Store is the sharded MySQL deployment.
type Store struct {
	opts   Options
	clust  *cluster.Cluster
	ring   *hashring.Mod
	shards []*shard
	// down marks killed servers (fault injection). Client-side sharding
	// has no failover: a dead shard's keys are unavailable until restart.
	down      []bool
	downCount int
}

type shard struct {
	node     *cluster.Node
	db       *btree.Tree
	redo     *wal.Log
	binlog   *wal.Log
	binBytes int64
	// unpurged counts row versions created since the last purge pass.
	unpurged int64
	purgerUp bool
	// replayMark is the redo-log watermark of the last checkpoint
	// (restart); crash recovery replays the bytes appended since.
	replayMark int64
}

// binlogBytesPerRecord is the statement-based binary log cost of one
// insert (full SQL text plus event headers); it makes the binary log
// roughly double MySQL's disk footprint, as the paper reports (§5.7).
const binlogBytesPerRecord = 250

// New deploys one MySQL server per node.
func New(c *cluster.Cluster, opts Options) *Store {
	opts.defaults()
	s := &Store{opts: opts, clust: c, ring: hashring.NewMod(len(c.Nodes))}
	for _, n := range c.Nodes {
		pageSize := int64(16 << 10)
		poolBytes := int64(float64(n.Spec.RAMBytes) * opts.BufferPoolFraction)
		s.shards = append(s.shards, &shard{
			node: n,
			db: btree.New(btree.Config{
				PageSize:    pageSize,
				BufferPages: int(poolBytes / pageSize),
				LeafCap:     opts.LeafCap,
				InternalCap: 512,
			}),
			redo:   wal.New(n, 5*sim.Millisecond),
			binlog: wal.New(n, 5*sim.Millisecond),
		})
	}
	s.down = make([]bool, len(c.Nodes))
	return s
}

// Default returns the paper's configuration: binary log enabled.
func Default(c *cluster.Cluster) *Store {
	return New(c, Options{BinLog: true})
}

// Name implements store.Store.
func (s *Store) Name() string { return "mysql" }

// CopiesOnIngest implements store.IngestCopier: every write path lands in
// the slab-backed B-tree, which copies key and field bytes into its own
// arenas, so callers may reuse a fields buffer across writes.
func (s *Store) CopiesOnIngest() bool { return true }

// SlabBytes implements store.SlabReporter: the retained footprint of every
// shard's B-tree slabs.
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.db.SlabBytes()
	}
	return total
}

// Caps implements store.Store: range queries over the clustered index
// return key-ordered rows (shard results are merge-sorted client-side), so
// the query layer can plan against them.
func (s *Store) Caps() store.Caps { return store.Caps{Scans: true} }

func (s *Store) shard(key string) *shard { return s.shards[s.ring.Owner(key)] }

func (s *Store) shardIndex(key string) int { return s.ring.Owner(key) }

func chargeIO(p *sim.Proc, n *cluster.Node, io btree.IOStats, pageSize int64) {
	for i := 0; i < io.Misses; i++ {
		n.DiskRead(p, pageSize, true)
	}
	for i := 0; i < io.DirtyWritebacks; i++ {
		n.DiskWrite(p, pageSize, true)
	}
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	si := s.shardIndex(key)
	if s.down[si] {
		return store.FieldsView{}, store.ErrUnavailable
	}
	sh := s.shards[si]
	var out store.FieldsView
	var ok bool
	base.Roundtrip(p, sh.node, base.ReqHeader, base.RecordWire, func() {
		sh.node.Compute(p, s.opts.ReadCPU+s.opts.connOverhead())
		var io btree.IOStats
		out, ok, io = sh.db.Get(key)
		chargeIO(p, sh.node, io, 16<<10)
	})
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

// ensurePurger runs the background MVCC purge loop for a shard. Its
// clearing rate is capped, so sustained insert rates above PurgeCapPerSec
// grow the version backlog without bound.
func (s *Store) ensurePurger(e *sim.Engine, sh *shard) {
	if sh.purgerUp {
		return
	}
	sh.purgerUp = true
	e.Go("mysql-purge", func(p *sim.Proc) {
		for sh.unpurged > 0 {
			p.Sleep(s.opts.PurgeInterval)
			batch := int64(float64(s.opts.PurgeCapPerSec) * s.opts.PurgeInterval.Seconds())
			if batch > sh.unpurged {
				batch = sh.unpurged
			}
			sh.node.Compute(p, sim.Time(batch)*200*sim.Nanosecond)
			sh.unpurged -= batch
		}
		sh.purgerUp = false
	})
}

func (s *Store) write(p *sim.Proc, key string, f store.Fields) error {
	si := s.shardIndex(key)
	if s.down[si] {
		return store.ErrUnavailable
	}
	sh := s.shards[si]
	base.Roundtrip(p, sh.node, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		sh.node.Compute(p, s.opts.WriteCPU+s.opts.connOverhead())
		sh.redo.Append(p, int64(store.RawRecordBytes), false)
		if s.opts.BinLog {
			sh.binlog.Append(p, binlogBytesPerRecord, false)
			sh.binBytes += binlogBytesPerRecord
		}
		io := sh.db.Put(key, f)
		chargeIO(p, sh.node, io, 16<<10)
		sh.unpurged++
		s.ensurePurger(p.Engine(), sh)
	})
	return nil
}

// Insert implements store.Store.
func (s *Store) Insert(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Update implements store.Store: a read-modify-write UPDATE ... WHERE
// key = ?. Unlike Insert, the row is rewritten in place — the index descent
// pays page-read charges, only the leaf holding the row is dirtied, and no
// page is allocated — while the redo log and (statement-based) binary log
// still append, and the old row version joins the MVCC purge backlog as an
// undo record. Updating an absent key pays the full descent and returns
// store.ErrNotFound.
func (s *Store) Update(p *sim.Proc, key string, f store.Fields) error {
	si := s.shardIndex(key)
	if s.down[si] {
		return store.ErrUnavailable
	}
	sh := s.shards[si]
	var found bool
	base.Roundtrip(p, sh.node, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		sh.node.Compute(p, s.opts.UpdateCPU+s.opts.connOverhead())
		var io btree.IOStats
		found, io = sh.db.Update(key, f)
		chargeIO(p, sh.node, io, 16<<10)
		if !found {
			return
		}
		sh.redo.Append(p, int64(store.RawRecordBytes), false)
		if s.opts.BinLog {
			// Statement-based logging: an UPDATE statement costs about
			// what the INSERT that created the row did.
			sh.binlog.Append(p, binlogBytesPerRecord, false)
			sh.binBytes += binlogBytesPerRecord
		}
		sh.unpurged++ // the overwritten version joins the undo history
		s.ensurePurger(p.Engine(), sh)
	})
	if !found {
		return store.ErrNotFound
	}
	return nil
}

// Scan implements store.Store.
//
// Single-node deployments use the plain (unsharded) JDBC client: the range
// query honors the row limit and costs a short B-tree range read plus the
// traversal of any unpurged row versions. Sharded deployments (§5.4) issue
// the per-shard "key >= start" query sequentially to every shard and merge
// client-side; each shard materializes its table tail until the client
// abandons the cursor, which is why scan throughput collapses for two or
// more nodes (Figs 12-14).
//
// The JDBC result set is fully fetched (and, sharded, merge-sorted) before
// the client sees a row, so the cursor wraps the materialized result: all
// virtual time is charged here, matching the historical materialized Scan.
func (s *Store) Scan(p *sim.Proc, start string, count int) (store.Cursor, error) {
	// The client-side merge needs every shard's answer; any dead shard
	// fails the whole scan.
	if s.downCount > 0 {
		return nil, store.ErrUnavailable
	}
	if len(s.shards) == 1 {
		sh := s.shards[0]
		var rows []btree.Entry
		base.Roundtrip(p, sh.node, base.ReqHeader, int64(count)*base.RecordWire, func() {
			s.scanShardLimit(p, sh, start, count, &rows)
		})
		return store.NewSliceCursor(toRecords(rows, count)), nil
	}
	var all []btree.Entry
	for _, sh := range s.shards {
		sh := sh
		var rows []btree.Entry
		base.Roundtrip(p, sh.node, base.ReqHeader, int64(count)*base.RecordWire, func() {
			s.scanShardTail(p, sh, start, count, &rows)
		})
		all = append(all, rows...)
	}
	return store.NewSliceCursor(toRecords(mergeSorted(all), count)), nil
}

// versionPenalty is the MVCC read-view cost of traversing unpurged history.
func (s *Store) versionPenalty(sh *shard) sim.Time {
	return sim.Time(float64(sh.unpurged) * float64(s.opts.VersionRowCPU))
}

// scanShardLimit is the limit-respecting single-server range read.
func (s *Store) scanShardLimit(p *sim.Proc, sh *shard, start string, count int, rows *[]btree.Entry) {
	sh.node.Compute(p, s.opts.ReadCPU)
	got, io := sh.db.Scan(start, count)
	chargeIO(p, sh.node, io, 16<<10)
	sh.node.Compute(p, sim.Time(len(got))*s.opts.ScanRowCPU+s.versionPenalty(sh))
	*rows = got
}

// scanShardTail is the sharded client's unbounded tail query. The row count
// is rescaled to paper-equivalent size so the cost does not depend on the
// simulation's dataset scale.
func (s *Store) scanShardTail(p *sim.Proc, sh *shard, start string, count int, rows *[]btree.Entry) {
	sh.node.Compute(p, s.opts.ReadCPU)
	got, io := sh.db.Scan(start, count)
	chargeIO(p, sh.node, io, 16<<10)
	tail, tailIO := sh.db.ScanAllFrom(start)
	chargeIO(p, sh.node, btree.IOStats{Misses: tailIO.Misses / 8}, 16<<10)
	equivRows := float64(tail) * s.opts.ScaleComp
	sh.node.Compute(p, sim.Time(equivRows*float64(s.opts.TailRowCPU))+s.versionPenalty(sh))
	*rows = got
}

func mergeSorted(es []btree.Entry) []btree.Entry {
	out := append([]btree.Entry(nil), es...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func toRecords(es []btree.Entry, count int) []store.Record {
	if len(es) > count {
		es = es[:count]
	}
	out := make([]store.Record, len(es))
	for i, e := range es {
		out[i] = store.Record{Key: e.Key, Fields: e.Fields}
	}
	return out
}

// Load implements store.Store: buffered into the B-tree's deferred bulk
// build (one batched construction pass when the workload starts).
func (s *Store) Load(key string, f store.Fields) error {
	sh := s.shard(key)
	sh.db.Load(key, f)
	if s.opts.BinLog {
		sh.binBytes += binlogBytesPerRecord
		sh.node.AddDiskUsage(binlogBytesPerRecord)
	}
	return nil
}

// DiskUsage implements store.Store: table space plus binary log.
func (s *Store) DiskUsage() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.db.DiskBytes() + sh.binBytes
	}
	return total
}

// InnoDB crash-recovery cost model: redo replay since the last checkpoint,
// bounded by the log file size, at ~100 MB/s of CPU.
const (
	replayCPUPerByte     = 10 * sim.Nanosecond
	recoverySegmentBytes = 64 << 20
)

// KillNode implements fault.Target: mysqld dies; the buffered redo/binlog
// tails are lost and the shard's keys error until restart.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
	s.shards[i].redo.Close()
	s.shards[i].binlog.Close()
}

// RestartNode implements fault.Target: InnoDB replays the redo log written
// since the last checkpoint before the server accepts connections.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	sh := s.shards[i]
	replay := sh.redo.DurableBytes() - sh.replayMark
	if replay > recoverySegmentBytes {
		replay = recoverySegmentBytes
	}
	if replay > 0 {
		sh.node.DiskRead(p, replay, false)
		sh.node.Compute(p, sim.Time(replay)*replayCPUPerByte)
	}
	sh.replayMark = sh.redo.DurableBytes()
	sh.redo.Reopen()
	sh.binlog.Reopen()
	s.down[i] = false
	s.downCount--
}

// NodeDown reports whether shard i is down (diagnostics/tests).
func (s *Store) NodeDown(i int) bool { return s.down[i] }

var _ store.Store = (*Store)(nil)
