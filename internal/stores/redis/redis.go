// Package redis models the paper's Redis deployment: independent
// single-node in-memory instances sharded on the client side with a
// Jedis-style MurmurHash ring (§4.4, §6). Each instance runs a
// single-threaded event loop; the YCSB client stores each record in a hash
// and additionally indexes the key in a sorted set so scans are possible.
//
// The two behaviours that shaped the paper's results are reproduced:
//
//   - the Jedis ring distributes keys unevenly, so the hottest instance
//     saturates first and caps aggregate throughput (§5.1);
//   - per-record memory overhead (dict entry, robj headers, sorted-set skip
//     list node, allocator slack) is far larger than the 75-byte payload, so
//     the hottest node exhausts its RAM at 12 nodes and begins swapping —
//     "this actually caused one Redis node to consistently run out of
//     memory in the 12 node configuration".
package redis

import (
	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/base"
)

// Options tunes the model.
type Options struct {
	// PerRecordOverhead is resident bytes per record beyond the payload.
	// Calibrated so that ~13M records approach a 16 GB node (EXPERIMENTS.md).
	PerRecordOverhead int64
	// ReadCPU/WriteCPU are event-loop service times per operation.
	ReadCPU  sim.Time
	WriteCPU sim.Time
	// ScanPerRecordCPU is the per-returned-record cost of ZRANGEBYLEX+HGETALL.
	ScanPerRecordCPU sim.Time
	// Balanced replaces the Jedis ring with uniform hash-mod sharding
	// (ablation: what Redis scaling would look like with good sharding).
	Balanced bool
	// MemScale scales the memory reserved by runtime inserts. In a scaled
	// simulation node RAM is multiplied by the scale factor while insert
	// *rates* are not, so unscaled runtime growth would hit the RAM
	// ceiling 1/scale times too fast; the harness passes its scale factor
	// so the pressure trajectory over a measured window matches the
	// paper's. Loaded data is always accounted in full.
	MemScale float64
}

func (o *Options) defaults() {
	if o.PerRecordOverhead == 0 {
		o.PerRecordOverhead = 1200
	}
	if o.ReadCPU == 0 {
		o.ReadCPU = 18 * sim.Microsecond
	}
	if o.WriteCPU == 0 {
		o.WriteCPU = 22 * sim.Microsecond
	}
	if o.ScanPerRecordCPU == 0 {
		o.ScanPerRecordCPU = 3 * sim.Microsecond
	}
	if o.MemScale == 0 {
		o.MemScale = 1
	}
}

type sharder interface {
	Owner(key string) int
}

// Store is the sharded Redis deployment.
type Store struct {
	opts  Options
	clust *cluster.Cluster
	ring  sharder
	insts []*instance
	// down marks killed instances (fault injection). Client-side sharding
	// has no failover: a dead shard's keys are unavailable until restart.
	down      []bool
	downCount int
}

// instance is one single-threaded Redis process.
type instance struct {
	node *cluster.Node
	loop *sim.Resource // the single event-loop thread
	// hash + sorted-set index: one ordered structure serves both.
	data      *memtable.Memtable
	resident  int64 // bytes of RAM in use
	swapping  bool
	swapBlock int64
}

// New deploys one instance per cluster node.
func New(c *cluster.Cluster, opts Options) *Store {
	opts.defaults()
	s := &Store{opts: opts, clust: c}
	if opts.Balanced {
		s.ring = hashring.NewMod(len(c.Nodes))
	} else {
		s.ring = hashring.NewJedisRing(len(c.Nodes))
	}
	for i, n := range c.Nodes {
		s.insts = append(s.insts, &instance{
			node: n,
			loop: sim.NewResource(c.Eng, "redis-loop", 1),
			data: memtable.New(int64(i) + 7),
		})
	}
	s.down = make([]bool, len(c.Nodes))
	return s
}

// Name implements store.Store.
func (s *Store) Name() string { return "redis" }

// CopiesOnIngest implements store.IngestCopier: the instance's ordered
// structure is an arena-backed memtable that copies field bytes, so
// callers may reuse a fields buffer across writes.
func (s *Store) CopiesOnIngest() bool { return true }

// SlabBytes implements store.SlabReporter: the retained footprint of every
// instance's memtable arenas.
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, in := range s.insts {
		total += in.data.SlabBytes()
	}
	return total
}

// Caps implements store.Store: the sharded client merges every instance's
// key-ordered range, so results are key-ordered and the query layer can
// plan against them.
func (s *Store) Caps() store.Caps { return store.Caps{Scans: true} }

func (s *Store) inst(key string) *instance { return s.insts[s.ring.Owner(key)] }

func (s *Store) instIndex(key string) int { return s.ring.Owner(key) }

func recordBytes(key string, f store.Fields) int64 {
	b := int64(len(key))
	for _, v := range f {
		b += int64(len(v))
	}
	return b
}

// swapPenalty charges anonymous-page swap I/O when the instance has
// exceeded physical memory; the further past RAM it is, the more likely an
// access touches a swapped page.
func (in *instance) swapPenalty(p *sim.Proc) {
	if !in.swapping {
		return
	}
	// The fraction of the instance's pages that cannot be resident is the
	// probability a uniformly chosen record touches a swapped page.
	prob := 1 - float64(in.node.Spec.RAMBytes)/float64(in.resident)
	if prob <= 0 {
		return
	}
	if p.Rand().Float64() < prob {
		in.node.DiskRead(p, 4096, true)
	}
}

func (in *instance) reserve(key string, f store.Fields, overhead int64, memScale float64) {
	delta := int64(float64(recordBytes(key, f)+overhead) * memScale)
	in.resident += delta
	in.node.ReserveRAM(delta)
	if in.resident > in.node.Spec.RAMBytes {
		in.swapping = true
	}
}

// Insert implements store.Store.
func (s *Store) Insert(p *sim.Proc, key string, f store.Fields) error {
	si := s.instIndex(key)
	if s.down[si] {
		return store.ErrUnavailable
	}
	in := s.insts[si]
	base.Roundtrip(p, in.node, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		in.loop.Acquire(p)
		in.swapPenalty(p)
		in.node.Compute(p, s.opts.WriteCPU)
		in.data.Put(key, f)
		in.reserve(key, f, s.opts.PerRecordOverhead, s.opts.MemScale)
		in.loop.Release()
	})
	return nil
}

// Update implements store.Store. Redis HSET of an existing key costs the
// same as an insert without new memory.
func (s *Store) Update(p *sim.Proc, key string, f store.Fields) error {
	si := s.instIndex(key)
	if s.down[si] {
		return store.ErrUnavailable
	}
	in := s.insts[si]
	base.Roundtrip(p, in.node, base.ReqHeader+base.RecordWire, base.AckWire, func() {
		in.loop.Acquire(p)
		in.swapPenalty(p)
		in.node.Compute(p, s.opts.WriteCPU)
		in.data.Put(key, f)
		in.loop.Release()
	})
	return nil
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	si := s.instIndex(key)
	if s.down[si] {
		return store.FieldsView{}, store.ErrUnavailable
	}
	in := s.insts[si]
	var out store.FieldsView
	var ok bool
	base.Roundtrip(p, in.node, base.ReqHeader, base.RecordWire, func() {
		in.loop.Acquire(p)
		in.swapPenalty(p)
		in.node.Compute(p, s.opts.ReadCPU)
		out, ok = in.data.Get(key)
		in.loop.Release()
	})
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

// Scan implements store.Store. The sharded client must consult every
// instance (hash sharding destroys key order) and merge, so all virtual
// time is charged before the cursor over the merged result is returned —
// the same sequence the historical materialized Scan charged. Instances
// hold disjoint keys, so each answer merges straight into the
// count-bounded result.
func (s *Store) Scan(p *sim.Proc, start string, count int) (store.Cursor, error) {
	// The merge needs an answer from every shard; any dead shard fails
	// the whole scan.
	if s.downCount > 0 {
		return nil, store.ErrUnavailable
	}
	g := memtable.NewGather(count)
	for _, in := range s.insts {
		in := in
		base.Roundtrip(p, in.node, base.ReqHeader, int64(count)*base.RecordWire, func() {
			in.loop.Acquire(p)
			in.swapPenalty(p)
			in.node.Compute(p, s.opts.ReadCPU+sim.Time(count)*s.opts.ScanPerRecordCPU)
			g.Scan(in.data, start)
			in.loop.Release()
		})
	}
	return g, nil
}

// Load implements store.Store.
func (s *Store) Load(key string, f store.Fields) error {
	in := s.inst(key)
	in.data.Put(key, f)
	in.reserve(key, f, s.opts.PerRecordOverhead, 1) // full accounting
	return nil
}

// DiskUsage implements store.Store: Redis keeps data in memory (the paper
// excludes it from the disk-usage experiment).
func (s *Store) DiskUsage() int64 { return 0 }

// HottestLoadFactor reports max instance records / mean, quantifying the
// sharding imbalance.
func (s *Store) HottestLoadFactor() float64 {
	maxN, total := 0, 0
	for _, in := range s.insts {
		n := in.data.Len()
		total += n
		if n > maxN {
			maxN = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(maxN) / (float64(total) / float64(len(s.insts)))
}

// replayCPUPerByte is the CPU cost of rebuilding in-memory structures from
// an RDB/AOF image on restart (~100 MB/s).
const replayCPUPerByte = 10 * sim.Nanosecond

// KillNode implements fault.Target: the instance process dies. Data is not
// lost to the model (the paper ran with persistence configured), but clients
// of that shard fail until restart.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
}

// RestartNode implements fault.Target: the instance reloads its dataset
// from the persistence image before serving again.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	in := s.insts[i]
	if in.resident > 0 {
		in.node.DiskRead(p, in.resident, false)
		in.node.Compute(p, sim.Time(in.resident)*replayCPUPerByte)
	}
	s.down[i] = false
	s.downCount--
}

// NodeDown reports whether instance i is down (diagnostics/tests).
func (s *Store) NodeDown(i int) bool { return s.down[i] }

// SwappingNodes reports how many instances have exceeded physical RAM.
func (s *Store) SwappingNodes() int {
	n := 0
	for _, in := range s.insts {
		if in.swapping {
			n++
		}
	}
	return n
}

var _ store.Store = (*Store)(nil)
