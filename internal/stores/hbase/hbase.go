// Package hbase models Apache HBase 0.90 on Hadoop as benchmarked in the
// paper (§4.1): a master plus region servers colocated with HDFS DataNodes,
// ordered region partitioning of the (hashed) key space, and per-region
// LSM storage (HLog + MemStore + HFiles) whose blocks live in the simulated
// DFS.
//
// The asymmetry that dominates the paper's results is reproduced
// structurally:
//
//   - writes go through the client-side write buffer (autoFlush off in the
//     YCSB client), so an individual put costs microseconds and only every
//     Nth put pays the batched RPC — HBase's write latency is the lowest of
//     all systems (Fig 5/8/11), and throughput rises steeply with the write
//     ratio (Fig 9, Fig 18);
//   - reads traverse the 0.90-era RegionServer/DFSClient read path, which is
//     expensive per operation, so read throughput is the lowest and read
//     latency at saturation the highest (50–90 ms for Workload R, up to ~1 s
//     for Workload W where reads queue behind write batches, flushes and
//     compactions).
package hbase

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/lsm"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/store"
	"repro/internal/stores/base"
)

// Options tunes the model.
type Options struct {
	ReadCPU sim.Time // RegionServer get() path cost per read
	// WriteClientCPU is the client-side cost of buffering one put.
	WriteClientCPU sim.Time
	// BatchRecords is the client write-buffer size in records; every
	// BatchRecords-th put pays the flush RPC.
	BatchRecords int
	// BatchRecordCPU is the server-side cost per record in a batched put.
	BatchRecordCPU sim.Time
	ScanCPU        sim.Time // scanner setup cost
	ScanRowCPU     sim.Time // per-returned-row cost
	// Overhead is HFile KeyValue format overhead: the full row key, column
	// family, qualifier, timestamp and lengths are stored with every cell,
	// which is why HBase used ~7.5 GB/node for 0.7 GB of raw data (Fig 17).
	Overhead           sstable.Overhead
	MemstoreFlushBytes int64
	CacheBytes         int64 // block cache + OS cache per node (0 = RAM/2)
	// CompactMin is the compaction threshold: HFiles per tier before a
	// minor compaction merges them (hbase.hstore.compactionThreshold;
	// 0 = the default 4).
	CompactMin int
	// AutoFlush disables the client write buffer (ablation: every put pays
	// a full RPC, as with autoFlush=true).
	AutoFlush bool
	Handlers  int // RPC handler threads per region server
}

func (o *Options) defaults() {
	if o.ReadCPU == 0 {
		o.ReadCPU = 3100 * sim.Microsecond
	}
	if o.WriteClientCPU == 0 {
		o.WriteClientCPU = 25 * sim.Microsecond
	}
	if o.BatchRecords == 0 {
		o.BatchRecords = 128
	}
	if o.BatchRecordCPU == 0 {
		// HBase 0.90's server-side put path is nearly as heavy as its read
		// path; the write buffer saves round trips and latency, not server
		// CPU. Calibrated so Workload W saturates a node around 14K ops/s
		// with high amortized write latency under load (Figs 9/11).
		o.BatchRecordCPU = 550 * sim.Microsecond
	}
	if o.ScanCPU == 0 {
		o.ScanCPU = 2800 * sim.Microsecond
	}
	if o.ScanRowCPU == 0 {
		o.ScanRowCPU = 15 * sim.Microsecond
	}
	if o.Overhead == (sstable.Overhead{}) {
		// 25-byte key + 75 row overhead + 5 cells x (10 + 120) = 750
		// bytes/record -> 7.5 GB per 10M records.
		o.Overhead = sstable.Overhead{PerEntry: 75, PerCell: 120}
	}
	if o.MemstoreFlushBytes == 0 {
		o.MemstoreFlushBytes = 16 << 20
	}
	if o.Handlers == 0 {
		o.Handlers = 30
	}
}

// Store is an HBase deployment.
type Store struct {
	opts    Options
	clust   *cluster.Cluster
	fs      *dfs.FS
	regions []*region
	splits  []string // region split keys: region i holds keys < splits[i]
	// down marks killed region servers (fault injection). HBase 0.90 has
	// no read replicas: a dead region server means its key range is simply
	// unavailable until restart + HLog replay.
	down      []bool
	downCount int
}

// region is one region hosted by the server on the same-index node.
type region struct {
	machine  *cluster.Node
	handlers *sim.Resource
	tree     *lsm.Tree
	buffered int // client write-buffer fill (records since last flush RPC)
}

// hbaseIO routes LSM block traffic through the DFS (RegionServer is
// colocated with its DataNode). Data blocks stay local, but every access
// pays the DataNode protocol cost.
type hbaseIO struct {
	fs      *dfs.FS
	file    *dfs.File
	node    int
	machine *cluster.Node
}

func (io hbaseIO) ReadBlock(p *sim.Proc, bytes int64, random bool) {
	if err := io.fs.ReadAt(p, io.file, 0, bytes, io.node, random); err != nil {
		// Empty file (no flush yet): pay the local read directly.
		io.machine.Compute(p, 150*sim.Microsecond)
		io.machine.DiskRead(p, bytes, random)
	}
}

func (io hbaseIO) WriteRun(p *sim.Proc, bytes int64) {
	// HFile runs are written through the colocated DataNode. Space is
	// accounted by the LSM layer, so back it out of the DFS's accounting
	// to avoid double counting.
	io.fs.Append(p, io.file, bytes, io.node)
	io.machine.AddDiskUsage(-bytes)
}

// New deploys HBase: one region (server) per node, regions pre-split evenly
// across the hashed key space (the YCSB key order is hashed, so ranges are
// uniformly loaded).
func New(c *cluster.Cluster, opts Options) *Store {
	opts.defaults()
	s := &Store{opts: opts, clust: c, fs: dfs.New(c, dfs.Config{})}
	n := len(c.Nodes)
	// Pre-split regions evenly across the numeric key space; fixed-width
	// keys make these valid lexicographic split points.
	step := ^uint64(0) / uint64(n)
	for i := 0; i < n-1; i++ {
		s.splits = append(s.splits, fmt.Sprintf("user%021d", uint64(i+1)*step))
	}
	for i, m := range c.Nodes {
		cache := opts.CacheBytes
		if cache == 0 {
			cache = m.Spec.RAMBytes / 2
		}
		file := &dfs.File{Name: fmt.Sprintf("/hbase/region%d", i)}
		s.regions = append(s.regions, &region{
			machine:  m,
			handlers: sim.NewResource(c.Eng, "hbase-handlers", opts.Handlers),
			tree: lsm.New(lsm.Config{
				Node:       m,
				Seed:       int64(i) + 23,
				FlushBytes: opts.MemstoreFlushBytes,
				Overhead:   opts.Overhead,
				WALWindow:  10 * sim.Millisecond,
				WALSync:    false, // deferred log flush
				CacheBytes: cache,
				CompactMin: opts.CompactMin,
				IO:         hbaseIO{fs: s.fs, file: file, node: i, machine: m},
			}),
		})
	}
	s.down = make([]bool, n)
	return s
}

// Name implements store.Store.
func (s *Store) Name() string { return "hbase" }

// CopiesOnIngest implements store.IngestCopier: puts (buffered or not)
// are applied to the region's arena-backed MemStore immediately, which
// copies field bytes, so callers may reuse a fields buffer across writes.
func (s *Store) CopiesOnIngest() bool { return true }

// SlabBytes implements store.SlabReporter: the retained footprint of every
// region's LSM tree (memstore arenas plus HFile slabs).
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, r := range s.regions {
		total += r.tree.SlabBytes()
	}
	return total
}

// Caps implements store.Store: region scans return globally key-ordered
// rows (regions partition the key space by range), so the query layer can
// plan against them.
func (s *Store) Caps() store.Caps { return store.Caps{Scans: true} }

// ScanStats implements store.ScanStatsReporter: scan-path positioning and
// pruning counters summed across every region's LSM tree.
func (s *Store) ScanStats() (positioned, pruned int64) {
	for _, r := range s.regions {
		pos, pr := r.tree.ScanStats()
		positioned += pos
		pruned += pr
	}
	return positioned, pruned
}

// regionIndex routes a key to its region by lexicographic range.
func (s *Store) regionIndex(key string) int {
	return sort.SearchStrings(s.splits, key+"\x00") // first split > key
}

func (s *Store) regionFor(key string) *region {
	return s.regions[s.regionIndex(key)]
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	ri := s.regionIndex(key)
	if s.down[ri] {
		return store.FieldsView{}, store.ErrUnavailable
	}
	r := s.regions[ri]
	var out store.FieldsView
	var ok bool
	base.Roundtrip(p, r.machine, base.ReqHeader, base.RecordWire, func() {
		r.handlers.Acquire(p)
		r.machine.Compute(p, s.opts.ReadCPU)
		out, ok = r.tree.Get(p, key)
		r.handlers.Release()
	})
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

func (s *Store) write(p *sim.Proc, key string, f store.Fields) error {
	ri := s.regionIndex(key)
	if s.down[ri] {
		return store.ErrUnavailable
	}
	r := s.regions[ri]
	if s.opts.AutoFlush {
		base.Roundtrip(p, r.machine, base.ReqHeader+base.RecordWire, base.AckWire, func() {
			r.handlers.Acquire(p)
			r.machine.Compute(p, s.opts.BatchRecordCPU*4) // per-op RPC path
			r.tree.Put(p, key, f)
			r.handlers.Release()
		})
		return nil
	}
	// Client write buffer: the put lands in the client buffer and the data
	// reaches the region's memstore when the buffer flushes. The model
	// applies the record immediately (deferred timing) and charges the
	// batched RPC to every BatchRecords-th writer.
	p.Sleep(s.opts.WriteClientCPU)
	r.tree.PutDeferred(p.Engine(), key, f)
	r.buffered++
	if r.buffered >= s.opts.BatchRecords {
		batch := r.buffered
		r.buffered = 0
		base.Roundtrip(p, r.machine, int64(batch)*base.RecordWire, base.AckWire, func() {
			r.handlers.Acquire(p)
			r.machine.Compute(p, sim.Time(batch)*s.opts.BatchRecordCPU)
			r.handlers.Release()
		})
	}
	return nil
}

// Insert implements store.Store.
func (s *Store) Insert(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Update implements store.Store.
func (s *Store) Update(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Scan implements store.Store. Regions store rows in key order, so a scan
// touches the region owning the start key and continues into successor
// regions only when the first cannot satisfy the count; HBase scans
// therefore cost about the same as reads (§5.4).
//
// The region walk charges every RPC before returning; the cursor wraps the
// gathered rows, so consumption is host-side only — the same virtual-time
// sequence the historical materialized Scan charged.
func (s *Store) Scan(p *sim.Proc, start string, count int) (store.Cursor, error) {
	var out []store.Record
	next := start
	for ri := s.regionIndex(start); ri < len(s.regions) && len(out) < count; ri++ {
		if s.down[ri] {
			// The scanner hits an unavailable region mid-range; without
			// region reassignment the scan cannot proceed.
			return nil, store.ErrUnavailable
		}
		r := s.regions[ri]
		want := count - len(out)
		base.Roundtrip(p, r.machine, base.ReqHeader, int64(want)*base.RecordWire, func() {
			r.handlers.Acquire(p)
			r.machine.Compute(p, s.opts.ScanCPU)
			rows := r.tree.Scan(p, next, want)
			r.machine.Compute(p, sim.Time(len(rows))*s.opts.ScanRowCPU)
			for _, e := range rows {
				out = append(out, store.Record{Key: e.Key, Fields: e.Fields})
			}
			r.handlers.Release()
		})
		if ri < len(s.splits) {
			next = s.splits[ri]
		}
	}
	return store.NewSliceCursor(out), nil
}

// Load implements store.Store.
func (s *Store) Load(key string, f store.Fields) error {
	s.regionFor(key).tree.LoadDirect(key, f)
	return nil
}

// DiskUsage implements store.Store.
func (s *Store) DiskUsage() int64 {
	var total int64
	for _, r := range s.regions {
		total += r.tree.DiskBytes()
	}
	return total
}

// Tree exposes a region's LSM engine for tests.
func (s *Store) Tree(i int) *lsm.Tree { return s.regions[i].tree }

// replayCPUPerByte is the CPU cost of reapplying one HLog byte on restart.
const replayCPUPerByte = 10 * sim.Nanosecond

// KillNode implements fault.Target: the region server dies; its HLog tail
// is dropped and its client write buffer is lost. The key range it serves
// errors until restart.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
	r := s.regions[i]
	r.buffered = 0 // the client-side buffer for a dead region is discarded
	r.tree.Log().Close()
}

// RestartNode implements fault.Target: HLog replay — re-read the un-flushed
// MemStore tail through the colocated DataNode and reapply it — before the
// region serves again.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	r := s.regions[i]
	if replay := r.tree.MemBytes(); replay > 0 {
		r.machine.DiskRead(p, replay, false)
		r.machine.Compute(p, sim.Time(replay)*replayCPUPerByte)
	}
	r.tree.Log().Reopen()
	s.down[i] = false
	s.downCount--
}

// NodeDown reports whether region server i is down (diagnostics/tests).
func (s *Store) NodeDown(i int) bool { return s.down[i] }

var _ store.Store = (*Store)(nil)
