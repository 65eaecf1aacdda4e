// Package lsm implements a log-structured merge tree over the simulated
// cluster: commit log + memtable + SSTables with Bloom filters and
// size-tiered compaction. It is the storage engine of the Cassandra and
// HBase models. Reads consult the memtable then SSTables newest-first,
// paying a random disk I/O per probed table that misses the page cache;
// flushes and compactions run as background processes that contend for the
// node's disks and therefore perturb foreground latency exactly when the
// paper's systems did.
package lsm

import (
	"repro/internal/cluster"
	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/sstable"
	"repro/internal/wal"
)

// BlockIO abstracts where SSTable blocks live. The default reads and writes
// the owning node's local disks; HBase substitutes a DFS-backed
// implementation that adds DataNode overhead.
type BlockIO interface {
	// ReadBlock pays for reading bytes at the given randomness.
	ReadBlock(p *sim.Proc, bytes int64, random bool)
	// WriteRun pays for writing a sequential run of bytes.
	WriteRun(p *sim.Proc, bytes int64)
}

// nodeIO is the default BlockIO: the node's own disks.
type nodeIO struct{ node *cluster.Node }

func (io nodeIO) ReadBlock(p *sim.Proc, bytes int64, random bool) {
	io.node.DiskRead(p, bytes, random)
}
func (io nodeIO) WriteRun(p *sim.Proc, bytes int64) {
	io.node.DiskWrite(p, bytes, false)
}

// Config parameterizes a tree.
type Config struct {
	Node       *cluster.Node
	Seed       int64
	FlushBytes int64            // memtable payload size that triggers a flush
	Overhead   sstable.Overhead // on-disk format cost
	BloomFPP   float64
	CompactMin int      // size-tiered: tables per tier before compacting
	WALWindow  sim.Time // group commit window
	WALSync    bool     // writers wait for group commit if true
	CacheBytes int64    // page cache available to this tree's data
	BlockBytes int64    // I/O granularity for point reads
	IO         BlockIO  // block storage; nil means the node's local disks
}

func (c *Config) defaults() {
	if c.FlushBytes == 0 {
		c.FlushBytes = 32 << 20
	}
	if c.BloomFPP == 0 {
		c.BloomFPP = 0.01
	}
	if c.CompactMin == 0 {
		c.CompactMin = 4
	}
	if c.WALWindow == 0 {
		c.WALWindow = 10 * sim.Millisecond
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 64 << 10
	}
	if c.IO == nil {
		c.IO = nodeIO{node: c.Node}
	}
}

// Tree is one node's LSM engine.
type Tree struct {
	cfg Config
	mem *memtable.Memtable
	// tables is an immutable, copy-on-write snapshot sorted by generation
	// descending (newest first). Flush and compaction publish a fresh slice
	// instead of mutating in place, so readers that park on simulated disk
	// I/O mid-read keep a consistent view by holding the slice header — no
	// per-read defensive copy needed.
	tables []*sstable.Table
	log    *wal.Log
	gen    int

	flushing   bool
	compacting bool

	tableBytes int64 // sum of SSTable DiskBytes
	// read-path statistics
	probes      int64
	bloomSkips  int64
	diskReads   int64
	memHits     int64
	compactions int64
	// scan-path statistics: tables positioned (paid an I/O charge) vs
	// pruned by key range without any I/O.
	scanPositioned int64
	scanPruned     int64
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	cfg.defaults()
	return &Tree{
		cfg: cfg,
		mem: memtable.New(cfg.Seed),
		log: wal.New(cfg.Node, cfg.WALWindow),
	}
}

func payloadBytes(key string, fields [][]byte) int64 {
	b := int64(len(key))
	for _, f := range fields {
		b += int64(len(f))
	}
	return b
}

// Put appends to the commit log and inserts into the memtable, triggering a
// background flush when the memtable is full.
func (t *Tree) Put(p *sim.Proc, key string, fields [][]byte) {
	t.log.Append(p, payloadBytes(key, fields), t.cfg.WALSync)
	t.mem.Put(key, fields)
	t.maybeFlush(p.Engine(), false)
}

// PutDeferred inserts without charging foreground I/O time: the caller has
// already paid for the batched transfer (HBase's client write buffer). WAL
// bytes are accounted and background flush/compaction still run with full
// timing, so heavy deferred writes still generate the disk load that slows
// concurrent reads.
func (t *Tree) PutDeferred(e *sim.Engine, key string, fields [][]byte) {
	t.log.AppendDirect(payloadBytes(key, fields))
	t.mem.Put(key, fields)
	t.maybeFlush(e, false)
}

// missProb returns the probability that an SSTable read misses the page
// cache, from the ratio of cache to on-disk data.
func (t *Tree) missProb() float64 {
	if t.tableBytes <= 0 || t.cfg.CacheBytes >= t.tableBytes {
		return 0
	}
	return 1 - float64(t.cfg.CacheBytes)/float64(t.tableBytes)
}

// chargeTableRead pays for one table probe's I/O if the block is not cached.
func (t *Tree) chargeTableRead(p *sim.Proc) {
	if miss := t.missProb(); miss > 0 && p.Rand().Float64() < miss {
		t.diskReads++
		t.cfg.IO.ReadBlock(p, t.cfg.BlockBytes, true)
	}
}

// Get reads key, probing memtable then tables newest-first. t.tables is an
// immutable copy-on-write snapshot sorted newest-generation-first, so
// holding the slice header across disk parks is safe (a concurrent
// compaction publishes a new slice, never mutates this one), and the first
// confirmed hit cannot be shadowed by any table probed later — older
// generations are skipped entirely instead of probed and discarded.
func (t *Tree) Get(p *sim.Proc, key string) (slab.FieldsView, bool) {
	if v, ok := t.mem.Get(key); ok {
		t.memHits++
		return v, true
	}
	for _, tab := range t.tables {
		if !tab.MayContain(key) {
			t.bloomSkips++
			continue
		}
		t.probes++
		t.chargeTableRead(p)
		if v, ok := tab.Get(key); ok {
			return v, true
		}
	}
	return slab.FieldsView{}, false
}

// memtableGen orders the memtable above every SSTable generation when
// merging scan sources.
const memtableGen = 1 << 30

// scanSource is one cursor feeding the k-way merge in Scan: the memtable's
// skip-list iterator or an SSTable iterator. key caches the current
// entry's key, so heap comparisons never decode a whole entry.
type scanSource struct {
	key   string
	gen   int
	mem   memtable.Iterator // skip-list cursor; only valid when isMem
	tab   sstable.Iterator  // table cursor; only valid when !isMem
	isMem bool
}

func (s *scanSource) entry() memtable.Entry {
	if s.isMem {
		return s.mem.Entry()
	}
	return s.tab.Entry()
}

// advance moves to the next entry and reports whether one exists.
func (s *scanSource) advance() bool {
	if s.isMem {
		s.mem.Next()
		if !s.mem.Valid() {
			return false
		}
		s.key = s.mem.Key()
		return true
	}
	s.tab.Next()
	if !s.tab.Valid() {
		return false
	}
	s.key = s.tab.Key()
	return true
}

// mergeHeap is a binary min-heap of scan sources ordered by (current key,
// generation descending): the top is always the next output entry and,
// among duplicate keys, the newest version surfaces first.
type mergeHeap []scanSource

func (h mergeHeap) before(a, b int) bool {
	ka, kb := h[a].key, h[b].key
	if ka != kb {
		return ka < kb
	}
	return h[a].gen > h[b].gen
}

func (h mergeHeap) down(i int) {
	for {
		min := i
		if l := 2*i + 1; l < len(h) && h.before(l, min) {
			min = l
		}
		if r := 2*i + 2; r < len(h) && h.before(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Cursor streams a scan's merged entries lazily: the k-way heap merge over
// the memtable and surviving sstables advances one entry per Next. All
// simulated charges (table positioning I/O and its cache-miss RNG draws)
// were paid by ScanCursor before the cursor existed, so consuming it is
// host-side only — Next never parks and never draws randomness.
type Cursor struct {
	h   mergeHeap
	cur memtable.Entry
	ok  bool
}

// Next advances to the next distinct key (newest generation wins) and
// reports whether one exists.
func (c *Cursor) Next() bool {
	for len(c.h) > 0 {
		e := c.h[0].entry()
		if c.h[0].advance() {
			c.h.down(0)
		} else {
			c.h[0] = c.h[len(c.h)-1]
			c.h = c.h[:len(c.h)-1]
			c.h.down(0)
		}
		// First occurrence of a key comes from the newest generation
		// (heap order); shadowed older versions are skipped here.
		if !c.ok || c.cur.Key != e.Key {
			c.cur = e
			c.ok = true
			return true
		}
	}
	return false
}

// Entry returns the current entry; valid after Next reports true, until the
// next call to Next.
func (c *Cursor) Entry() memtable.Entry { return c.cur }

// ScanCursor opens a streaming scan at start, charging all positioning I/O
// up front. The historical materialized Scan is now a drain of this cursor;
// the two charge the identical virtual-time (and RNG) sequence because
// every charge happens here, before either returns.
func (t *Tree) ScanCursor(p *sim.Proc, start string) *Cursor {
	// Snapshot both layers before parking on disk charges: t.tables is COW
	// (the slice header is a consistent view) and t.mem must be captured
	// with it — a flush during a park swaps t.mem and installs the flushed
	// table into a slice this snapshot doesn't include, so reading the
	// post-park memtable would silently drop those entries. Once swapped
	// out the captured memtable is frozen; until then writes landing during
	// the parks remain visible, so like the modeled systems a scan is not
	// snapshot-isolated against concurrent writers — it sees the state as
	// of its last positioning I/O.
	tabs := t.tables
	mem := t.mem
	// Prune tables whose key range cannot intersect the scan: the scan
	// covers [start, +inf) (it is bounded by count, not by an end key), so
	// only tables with maxKey < start are provably disjoint — they skip
	// the positioning charge entirely, the mirror of Get's range check in
	// MayContain. Fewer charges also means fewer cache-miss RNG draws, so
	// landing this shifted scan-heavy (RS/RSW) cell results once.
	live := make([]*sstable.Table, 0, len(tabs))
	for _, tab := range tabs {
		if _, maxKey := tab.KeyRange(); tab.Len() == 0 || maxKey < start {
			t.scanPruned++
			continue
		}
		t.scanPositioned++
		// One positioning I/O per table touched plus sequential transfer.
		t.chargeTableRead(p)
		live = append(live, tab)
	}
	// The merge never parks and simulated processes run one at a time, so
	// the sources cannot change while the cursor is consumed.
	h := make(mergeHeap, 0, len(live)+1)
	if it := mem.SeekIter(start); it.Valid() {
		h = append(h, scanSource{key: it.Key(), gen: memtableGen, mem: it, isMem: true})
	}
	for _, tab := range live {
		if it := tab.SeekIter(start); it.Valid() {
			h = append(h, scanSource{key: it.Key(), gen: tab.Gen, tab: it})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return &Cursor{h: h}
}

// Scan returns up to count entries with keys >= start, merged across the
// memtable and all tables (newest generation wins per key): a drained
// ScanCursor, kept for callers that want the materialized form.
func (t *Tree) Scan(p *sim.Proc, start string, count int) []memtable.Entry {
	c := t.ScanCursor(p, start)
	out := make([]memtable.Entry, 0, count)
	for len(out) < count && c.Next() {
		out = append(out, c.Entry())
	}
	return out
}

// maybeFlush swaps the memtable and writes it out in the background.
func (t *Tree) maybeFlush(e *sim.Engine, direct bool) {
	if t.mem.Bytes() < t.cfg.FlushBytes {
		return
	}
	if direct {
		t.flushNow(nil)
		return
	}
	if t.flushing {
		return
	}
	t.flushing = true
	full := t.mem
	t.mem = memtable.New(t.cfg.Seed + int64(t.gen) + 1)
	e.Go("lsm-flush", func(p *sim.Proc) {
		t.gen++
		// memtable.All is already key-ordered and duplicate-free, so the
		// flush skips Build's copy+sort (BuildSorted is dedup-only).
		tab := sstable.BuildSorted(t.gen, full.All(), t.cfg.Overhead, t.cfg.BloomFPP)
		t.cfg.IO.WriteRun(p, tab.DiskBytes)
		t.installTable(tab, full.Bytes())
		t.flushing = false
		t.maybeCompact(p.Engine(), false)
	})
}

// flushNow converts the current memtable to a table without timing (loader
// path).
func (t *Tree) flushNow(_ *sim.Proc) {
	if t.mem.Len() == 0 {
		return
	}
	t.gen++
	mem := t.mem
	t.mem = memtable.New(t.cfg.Seed + int64(t.gen) + 1)
	tab := sstable.FromMemtable(t.gen, mem, t.cfg.Overhead, t.cfg.BloomFPP)
	t.installTable(tab, mem.Bytes())
	t.maybeCompactDirect()
}

// installTable publishes a freshly flushed table. Flushes are serialized and
// bump t.gen, so tab is always the newest generation: prepend it to a new
// slice (copy-on-write — readers may hold the old one across disk parks).
func (t *Tree) installTable(tab *sstable.Table, walPayload int64) {
	tables := make([]*sstable.Table, 0, len(t.tables)+1)
	tables = append(tables, tab)
	tables = append(tables, t.tables...)
	t.tables = tables
	t.tableBytes += tab.DiskBytes
	t.cfg.Node.AddDiskUsage(tab.DiskBytes)
	t.log.Truncate(walPayload)
}

// tier buckets a table size for size-tiered compaction.
func tier(bytes int64) int {
	t := 0
	for bytes > 4<<20 {
		bytes >>= 2
		t++
	}
	return t
}

// pickCompaction returns the indices of tables in the fullest tier with at
// least CompactMin members (lowest tier number on ties). The choice must
// not depend on map iteration order: same-seed runs have to pick the same
// victims or table layouts — and with them every downstream RNG draw —
// diverge between runs.
func (t *Tree) pickCompaction() []int {
	byTier := map[int][]int{}
	for i, tab := range t.tables {
		tr := tier(tab.DiskBytes)
		byTier[tr] = append(byTier[tr], i)
	}
	best := -1
	for tr, idxs := range byTier {
		if len(idxs) < t.cfg.CompactMin {
			continue
		}
		if best < 0 || len(idxs) > len(byTier[best]) ||
			(len(idxs) == len(byTier[best]) && tr < best) {
			best = tr
		}
	}
	if best < 0 {
		return nil
	}
	return byTier[best]
}

// maybeCompact runs one size-tiered compaction in the background.
func (t *Tree) maybeCompact(e *sim.Engine, _ bool) {
	if t.compacting {
		return
	}
	idxs := t.pickCompaction()
	if idxs == nil {
		return
	}
	t.compacting = true
	victims := make([]*sstable.Table, len(idxs))
	var inBytes int64
	for i, idx := range idxs {
		victims[i] = t.tables[idx]
		inBytes += t.tables[idx].DiskBytes
	}
	e.Go("lsm-compact", func(p *sim.Proc) {
		t.cfg.IO.ReadBlock(p, inBytes, false)
		merged := sstable.Merge(victims, t.cfg.Overhead, t.cfg.BloomFPP)
		t.cfg.IO.WriteRun(p, merged.DiskBytes)
		t.replaceTables(victims, merged)
		t.compactions++
		t.compacting = false
		t.maybeCompact(p.Engine(), false)
	})
}

// maybeCompactDirect compacts synchronously without timing (loader path).
func (t *Tree) maybeCompactDirect() {
	for {
		idxs := t.pickCompaction()
		if idxs == nil {
			return
		}
		victims := make([]*sstable.Table, len(idxs))
		for i, idx := range idxs {
			victims[i] = t.tables[idx]
		}
		merged := sstable.Merge(victims, t.cfg.Overhead, t.cfg.BloomFPP)
		t.replaceTables(victims, merged)
		t.compactions++
	}
}

// replaceTables swaps victims for merged, updating accounting. The new list
// is built copy-on-write (readers may hold the old slice across disk parks)
// and keeps the newest-generation-first order, inserting merged at its
// sorted position.
func (t *Tree) replaceTables(victims []*sstable.Table, merged *sstable.Table) {
	dead := map[*sstable.Table]bool{}
	var deadBytes int64
	for _, v := range victims {
		dead[v] = true
		deadBytes += v.DiskBytes
	}
	kept := make([]*sstable.Table, 0, len(t.tables)-len(victims)+1)
	inserted := false
	for _, tab := range t.tables {
		if dead[tab] {
			continue
		}
		if !inserted && merged.Gen > tab.Gen {
			kept = append(kept, merged)
			inserted = true
		}
		kept = append(kept, tab)
	}
	if !inserted {
		kept = append(kept, merged)
	}
	t.tables = kept
	t.tableBytes += merged.DiskBytes - deadBytes
	t.cfg.Node.AddDiskUsage(merged.DiskBytes - deadBytes)
}

// LoadDirect inserts a record without simulation timing, for bulk loading
// before a measured run. Disk usage accounting still happens.
func (t *Tree) LoadDirect(key string, fields [][]byte) {
	t.log.AppendDirect(payloadBytes(key, fields))
	t.mem.Put(key, fields)
	t.maybeFlush(nil, true)
}

// TableCount returns the number of live SSTables.
func (t *Tree) TableCount() int { return len(t.tables) }

// DiskBytes returns the on-disk footprint of live tables.
func (t *Tree) DiskBytes() int64 { return t.tableBytes }

// MemBytes returns the current memtable payload size.
func (t *Tree) MemBytes() int64 { return t.mem.Bytes() }

// SlabBytes returns the retained heap footprint of the tree's record
// state: the memtable's arenas plus every live table's payload slab and
// entry metadata (apmbench -memstats).
func (t *Tree) SlabBytes() int64 {
	b := t.mem.SlabBytes()
	for _, tab := range t.tables {
		b += tab.SlabBytes()
	}
	return b
}

// Compactions returns how many compactions have completed.
func (t *Tree) Compactions() int64 { return t.compactions }

// Stats returns read-path counters: table probes, Bloom-filter skips,
// actual disk reads, and memtable hits.
func (t *Tree) Stats() (probes, bloomSkips, diskReads, memHits int64) {
	return t.probes, t.bloomSkips, t.diskReads, t.memHits
}

// ScanStats returns scan-path counters: tables that paid a positioning
// charge vs tables pruned because their key range cannot intersect the
// scan. Tests pin the pruning contract with them.
func (t *Tree) ScanStats() (positioned, pruned int64) {
	return t.scanPositioned, t.scanPruned
}

// Log exposes the commit log (for stores that need its accounting).
func (t *Tree) Log() *wal.Log { return t.log }
