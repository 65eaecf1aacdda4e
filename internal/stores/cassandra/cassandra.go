// Package cassandra models Apache Cassandra 1.0 as benchmarked in the
// paper (§4.2): a symmetric ring using the RandomPartitioner with manually
// assigned optimal tokens (§6), per-node LSM storage (commit log, memtable,
// SSTables with Bloom filters, size-tiered compaction), and coordinator
// forwarding — the YCSB client connects to a random node, which forwards the
// operation to the token owner when it is not local.
//
// Calibration notes (EXPERIMENTS.md): service times are set so that a
// Cluster M node saturates near 25K ops/s for Workload R with 128
// connections, which by Little's law reproduces the paper's ~5 ms read
// latency at maximum throughput. Writes additionally wait for the commit
// log group commit, reproducing the paper's consistently high-but-stable
// write latency (Fig 5: Cassandra has the highest stable write latency
// despite its write-oriented design).
package cassandra

import (
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/lsm"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/store"
	"repro/internal/stores/base"
)

// Options tunes the model.
type Options struct {
	ReadCPU  sim.Time // read stage service time per op
	WriteCPU sim.Time // mutation stage service time per op
	CoordCPU sim.Time // coordinator path cost (thrift parsing, routing)
	// ForwardCPU is extra coordinator CPU per proxied operation
	// (serialize, enqueue, deserialize the owner's response); it is why
	// per-node throughput drops when the cluster grows beyond one node
	// (Fig 3: the slope from 2..12 nodes is ~60% of 1-node throughput).
	ForwardCPU   sim.Time
	ScanNodeCPU  sim.Time // per-contacted-node cost of get_range_slices
	ScanRowCPU   sim.Time // per-returned-row cost
	StageThreads int      // read/mutation stage concurrency per node
	// CommitLogWindow is the group-commit window writers wait for
	// (batch mode; see package comment).
	CommitLogWindow sim.Time
	// CommitLogPeriodic switches the commit log to periodic mode:
	// writers acknowledge before the group commit syncs (Cassandra's
	// commitlog_sync: periodic), trading the batch window's write
	// latency for a durability window. Log bytes are still accounted.
	CommitLogPeriodic bool
	// RandomTokens uses Cassandra's default random token selection instead
	// of the optimal assignment (§6 ablation).
	RandomTokens bool
	// Overhead is the SSTable format overhead; default reproduces Fig 17's
	// 2.5 GB/node for 10M 75-byte records.
	Overhead sstable.Overhead
	// MemtableFlushBytes triggers memtable flushes.
	MemtableFlushBytes int64
	// CompactMin is the size-tiered compaction threshold: sstables per
	// tier before a compaction merges them (Cassandra's
	// min_compaction_threshold; 0 = the default 4).
	CompactMin int
	// CacheBytes per node for the SSTable page cache; <0 means "derive
	// from node RAM" (all of it beyond heap on Cluster M; scarce on D).
	CacheBytes int64
	// ReplicationFactor is the SimpleStrategy replica count (the paper ran
	// unreplicated; replication is its stated future work, §8).
	ReplicationFactor int
	// WriteConsistency is how many replica acknowledgements a write waits
	// for (1 = ONE; ReplicationFactor = ALL; anything between = QUORUM
	// style). Remaining replicas apply the mutation asynchronously.
	WriteConsistency int
	// Compression halves the SSTable footprint at extra CPU per access
	// (the paper declined it to protect throughput, §5.7; also future
	// work, §8).
	Compression bool
	// CompressionCPU is the per-operation (de)compression cost.
	CompressionCPU sim.Time
	// CompressionRatio scales SSTable bytes when Compression is on.
	CompressionRatio float64
}

func (o *Options) defaults() {
	if o.ReadCPU == 0 {
		o.ReadCPU = 300 * sim.Microsecond
	}
	if o.WriteCPU == 0 {
		o.WriteCPU = 260 * sim.Microsecond
	}
	if o.CoordCPU == 0 {
		o.CoordCPU = 40 * sim.Microsecond
	}
	if o.ForwardCPU == 0 {
		o.ForwardCPU = 170 * sim.Microsecond
	}
	if o.ScanNodeCPU == 0 {
		o.ScanNodeCPU = 350 * sim.Microsecond
	}
	if o.ScanRowCPU == 0 {
		o.ScanRowCPU = 22 * sim.Microsecond
	}
	if o.StageThreads == 0 {
		o.StageThreads = 32
	}
	if o.CommitLogWindow == 0 {
		o.CommitLogWindow = 6 * sim.Millisecond
	}
	if o.Overhead == (sstable.Overhead{}) {
		// 25-byte key + 25 row overhead + 5 cells x (10 payload + 30
		// name/timestamp/length) = 250 bytes/record -> 2.5 GB per 10M.
		o.Overhead = sstable.Overhead{PerEntry: 25, PerCell: 30}
	}
	if o.MemtableFlushBytes == 0 {
		o.MemtableFlushBytes = 16 << 20
	}
	if o.ReplicationFactor == 0 {
		o.ReplicationFactor = 1
	}
	if o.WriteConsistency == 0 {
		o.WriteConsistency = 1
	}
	if o.WriteConsistency > o.ReplicationFactor {
		o.WriteConsistency = o.ReplicationFactor
	}
	if o.CompressionCPU == 0 {
		o.CompressionCPU = 60 * sim.Microsecond
	}
	if o.CompressionRatio == 0 {
		o.CompressionRatio = 0.5
	}
}

// Store is a Cassandra cluster.
type Store struct {
	opts  Options
	clust *cluster.Cluster
	ring  *hashring.TokenRing
	nodes []*node
	// down marks killed nodes (fault injection); downCount caches the
	// population so healthy-cluster paths take zero extra branches beyond
	// one counter check.
	down      []bool
	downCount int
	// lag is extra per-node async-replica application delay (replica-lag
	// fault).
	lag []sim.Time
}

// node is one Cassandra process: SEDA stages plus an LSM engine.
type node struct {
	id        int
	machine   *cluster.Node
	readStage *sim.Resource
	mutStage  *sim.Resource
	tree      *lsm.Tree
}

// New deploys Cassandra on the cluster.
func New(c *cluster.Cluster, opts Options) *Store {
	opts.defaults()
	if opts.Compression {
		// Block compression shrinks both payload and per-cell overhead;
		// modeled by scaling the format overhead (payload bytes are scaled
		// in the LSM's accounting via the same table build).
		opts.Overhead.PerEntry = int64(float64(opts.Overhead.PerEntry) * opts.CompressionRatio)
		opts.Overhead.PerCell = int64(float64(opts.Overhead.PerCell) * opts.CompressionRatio)
	}
	s := &Store{opts: opts, clust: c}
	if opts.RandomTokens {
		s.ring = hashring.NewTokenRingRandom(len(c.Nodes), c.Eng.Rand().Uint64)
	} else {
		s.ring = hashring.NewTokenRingOptimal(len(c.Nodes))
	}
	for i, m := range c.Nodes {
		cache := opts.CacheBytes
		if cache == 0 {
			// Everything not used by the JVM heap serves as page cache.
			cache = m.Spec.RAMBytes / 2
		}
		s.nodes = append(s.nodes, &node{
			id:        i,
			machine:   m,
			readStage: sim.NewResource(c.Eng, "cassandra-read-stage", opts.StageThreads),
			mutStage:  sim.NewResource(c.Eng, "cassandra-mutation-stage", opts.StageThreads),
			tree: lsm.New(lsm.Config{
				Node:       m,
				Seed:       int64(i) + 11,
				FlushBytes: opts.MemtableFlushBytes,
				Overhead:   opts.Overhead,
				WALWindow:  opts.CommitLogWindow,
				WALSync:    !opts.CommitLogPeriodic, // batch mode: writers wait for the group commit
				CacheBytes: cache,
				CompactMin: opts.CompactMin,
			}),
		})
	}
	s.down = make([]bool, len(c.Nodes))
	s.lag = make([]sim.Time, len(c.Nodes))
	return s
}

// Name implements store.Store.
func (s *Store) Name() string { return "cassandra" }

// CopiesOnIngest implements store.IngestCopier: every write path lands in
// an arena-backed memtable that copies field bytes (async replicas clone
// before scheduling), so callers may reuse a fields buffer across writes.
func (s *Store) CopiesOnIngest() bool { return true }

// SlabBytes implements store.SlabReporter: the retained footprint of every
// node's LSM tree (memtable arenas plus sstable slabs).
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, n := range s.nodes {
		total += n.tree.SlabBytes()
	}
	return total
}

// Caps implements store.Store: range slices are supported and return
// key-ordered rows, so the query layer can plan against them.
func (s *Store) Caps() store.Caps { return store.Caps{Scans: true} }

// ScanStats implements store.ScanStatsReporter: scan-path positioning and
// pruning counters summed across every node's LSM tree.
func (s *Store) ScanStats() (positioned, pruned int64) {
	for _, n := range s.nodes {
		pos, pr := n.tree.ScanStats()
		positioned += pos
		pruned += pr
	}
	return positioned, pruned
}

// coordinator picks the node the client is connected to for this op. With
// nodes down, the client's connection pool skips them: the single random
// draw is kept (determinism: the no-fault RNG stream is untouched) and
// probed forward to the next live node. Nil means the whole cluster is
// down.
func (s *Store) coordinator(p *sim.Proc) *node {
	i := p.Rand().Intn(len(s.nodes))
	if s.downCount == 0 {
		return s.nodes[i]
	}
	for off := 0; off < len(s.nodes); off++ {
		if n := s.nodes[(i+off)%len(s.nodes)]; !s.down[n.id] {
			return n
		}
	}
	return nil
}

func (s *Store) owner(key string) *node {
	return s.nodes[s.ring.Owner(key)]
}

// readTarget returns the node that serves a read of key: the token owner,
// or — when the owner is down — the first live ring replica (read repair
// semantics at CL.ONE). Nil means no replica of key is alive.
func (s *Store) readTarget(key string) *node {
	if s.downCount == 0 {
		return s.owner(key)
	}
	for _, idx := range s.ring.Replicas(key, s.opts.ReplicationFactor) {
		if !s.down[idx] {
			return s.nodes[idx]
		}
	}
	return nil
}

// replicas returns the nodes holding key under SimpleStrategy.
func (s *Store) replicas(key string) []*node {
	idxs := s.ring.Replicas(key, s.opts.ReplicationFactor)
	out := make([]*node, len(idxs))
	for i, idx := range idxs {
		out[i] = s.nodes[idx]
	}
	return out
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	coord := s.coordinator(p)
	own := s.readTarget(key)
	if coord == nil || own == nil {
		return store.FieldsView{}, store.ErrUnavailable
	}
	var out store.FieldsView
	var ok bool
	serve := func() {
		own.readStage.Acquire(p)
		cpu := s.opts.ReadCPU
		if s.opts.Compression {
			cpu += s.opts.CompressionCPU
		}
		own.machine.Compute(p, cpu)
		out, ok = own.tree.Get(p, key)
		own.readStage.Release()
	}
	base.Roundtrip(p, coord.machine, base.ReqHeader, base.RecordWire, func() {
		coord.machine.Compute(p, s.opts.CoordCPU)
		if coord == own {
			serve()
			return
		}
		coord.machine.Compute(p, s.opts.ForwardCPU)
		base.Forward(p, coord.machine, own.machine, base.ReqHeader, base.RecordWire, serve)
	})
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

// applyMutation runs the mutation-stage work on one replica. SEDA: the
// stage thread applies the write and is released before the commit-log
// group commit completes; only the waiter blocks on the acknowledgement.
func (s *Store) applyMutation(p *sim.Proc, n *node, key string, f store.Fields) {
	n.mutStage.Acquire(p)
	cpu := s.opts.WriteCPU
	if s.opts.Compression {
		cpu += s.opts.CompressionCPU
	}
	n.machine.Compute(p, cpu)
	n.mutStage.Release()
	n.tree.Put(p, key, f) // waits for the commit-log group commit
}

func (s *Store) write(p *sim.Proc, key string, f store.Fields) error {
	coord := s.coordinator(p)
	if coord == nil {
		return store.ErrUnavailable
	}
	reps := s.replicas(key)
	if s.downCount > 0 {
		// Down replicas take no writes (hinted handoff is not modeled:
		// the mutation is simply lost on them, as the paper's unreplicated
		// setups would lose it). Consistency degrades to the live count.
		live := reps[:0]
		for _, rep := range reps {
			if !s.down[rep.id] {
				live = append(live, rep)
			}
		}
		reps = live
		if len(reps) == 0 {
			return store.ErrUnavailable
		}
	}
	sync := s.opts.WriteConsistency
	if sync > len(reps) {
		sync = len(reps)
	}
	base.Roundtrip(p, coord.machine, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		coord.machine.Compute(p, s.opts.CoordCPU)
		// Async replicas apply the mutation after the client is
		// acknowledged, so they must not retain the caller's (possibly
		// reused) fields buffer — or its key, which may be a view of a
		// reused key buffer. One deep copy of each is shared by all of
		// them: applyMutation never mutates either and the memtable
		// copies on ingest.
		var async store.Fields
		var asyncKey string
		cloned := false
		// The coordinator waits for sync acknowledgements; the remaining
		// replicas apply the mutation in the background.
		for i, rep := range reps {
			rep := rep
			if i < sync {
				if rep == coord {
					s.applyMutation(p, rep, key, f)
					continue
				}
				coord.machine.Compute(p, s.opts.ForwardCPU)
				base.Forward(p, coord.machine, rep.machine, base.ReqHeader+base.RecordWire, base.AckWire, func() {
					s.applyMutation(p, rep, key, f)
				})
				continue
			}
			if !cloned {
				async = f.Clone()
				asyncKey = strings.Clone(key)
				cloned = true
			}
			fc, kc := async, asyncKey
			p.Engine().Go("cassandra-async-replica", func(bp *sim.Proc) {
				bp.Sleep(coord.machine.NetDelay(base.ReqHeader+base.RecordWire) + s.lag[rep.id])
				if s.down[rep.id] {
					return // replica died before the mutation arrived
				}
				s.applyMutation(bp, rep, kc, fc)
			})
		}
	})
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

// Scan implements store.Store. With the RandomPartitioner,
// get_range_slices walks the ring from the start key's token, so a
// 50-record scan is answered by the token owner (continuing to ring
// successors only when that node cannot fill the count). The rows are a
// node-local sample of keys >= start rather than the globally smallest
// ones — exactly the semantics a RandomPartitioner range slice has — which
// is why Cassandra scans cost only ~4x a read and scale linearly
// (Figs 12/13).
//
// The distributed gather must complete (and sort) before the first row can
// be returned, so the cursor wraps the materialized result: all virtual
// time is charged here, none during cursor consumption — the same sequence
// the historical materialized Scan charged.
func (s *Store) Scan(p *sim.Proc, start string, count int) (store.Cursor, error) {
	coord := s.coordinator(p)
	if coord == nil {
		return nil, store.ErrUnavailable
	}
	var all []store.Record
	base.Roundtrip(p, coord.machine, base.ReqHeader, int64(count)*base.RecordWire, func() {
		coord.machine.Compute(p, s.opts.CoordCPU)
		first := s.ring.Owner(start)
		for i := 0; i < len(s.nodes) && len(all) < count; i++ {
			n := s.nodes[(first+i)%len(s.nodes)]
			if s.down[n.id] {
				continue // dead ring member: the range slice skips it
			}
			want := count - len(all)
			serve := func() {
				n.readStage.Acquire(p)
				n.machine.Compute(p, s.opts.ScanNodeCPU)
				rows := n.tree.Scan(p, start, want)
				n.machine.Compute(p, sim.Time(len(rows))*s.opts.ScanRowCPU)
				for _, r := range rows {
					all = append(all, store.Record{Key: r.Key, Fields: r.Fields})
				}
				n.readStage.Release()
			}
			if n == coord {
				serve()
				continue
			}
			base.Forward(p, coord.machine, n.machine, base.ReqHeader, int64(want)*base.RecordWire, serve)
		}
	})
	sortRecords(all)
	if len(all) > count {
		all = all[:count]
	}
	return store.NewSliceCursor(all), nil
}

func sortRecords(rs []store.Record) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Key < rs[j].Key })
}

// Load implements store.Store.
func (s *Store) Load(key string, f store.Fields) error {
	for _, rep := range s.replicas(key) {
		rep.tree.LoadDirect(key, f)
	}
	return nil
}

// DiskUsage implements store.Store.
func (s *Store) DiskUsage() int64 {
	var total int64
	for _, n := range s.nodes {
		total += n.tree.DiskBytes()
	}
	return total
}

// Tree exposes a node's LSM engine for tests and diagnostics.
func (s *Store) Tree(i int) *lsm.Tree { return s.nodes[i].tree }

// replayCPUPerByte is the CPU cost of reapplying one commitlog byte on
// restart (~100 MB/s of single-threaded mutation replay).
const replayCPUPerByte = 10 * sim.Nanosecond

// KillNode implements fault.Target: the node stops serving, its commit log
// is torn down (the buffered tail is lost, parked group-commit waiters are
// released) and later writes skip it. In-flight operations complete.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
	s.nodes[i].tree.Log().Close()
}

// RestartNode implements fault.Target: commitlog replay — re-read the
// un-flushed tail from disk and reapply it through the mutation path —
// is paid in virtual time before the node is marked up.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	n := s.nodes[i]
	if replay := n.tree.MemBytes(); replay > 0 {
		n.machine.DiskRead(p, replay, false)
		n.machine.Compute(p, sim.Time(replay)*replayCPUPerByte)
	}
	n.tree.Log().Reopen()
	s.down[i] = false
	s.downCount--
}

// SetReplicaLag implements fault.ReplicaLagger: extra delay before async
// replica application lands on node i.
func (s *Store) SetReplicaLag(i int, extra sim.Time) { s.lag[i] = extra }

// NodeDown reports whether node i is currently down (diagnostics/tests).
func (s *Store) NodeDown(i int) bool { return s.down[i] }

var _ store.Store = (*Store)(nil)
