// Package memtable implements a skip-list ordered in-memory table, the
// write buffer of an LSM tree (Cassandra's Memtable, HBase's MemStore).
//
// The skip list is cache-conscious and pointer-free: every node is a
// small run of uint64 words — key prefix pair, payload ref, packed
// lengths, then the tower's next-links inline — carved from chunked word
// arenas and addressed by word offsets instead of pointers. The search
// hot loop therefore walks contiguous memory (a node's compare words and
// its tower share one or two cache lines) and the garbage collector sees
// a handful of large scalar buffers instead of millions of linked nodes.
// Keys and field payloads live contiguously in a slab.Slab; field
// layouts are interned in a slab.ShapeTable so uniform-schema records
// pay no per-record header storage.
//
// Field bytes are COPIED on insert — the memtable owns its payload
// memory — which is what lets callers reuse one fields buffer across
// operations (see store.CopiesOnIngest).
//
// Ownership note: Get, Gather and iterators return views of the
// memtable's slabs. A later Put that replaces a key with same-shaped
// fields overwrites those bytes in place, so a value read before a
// simulated park may observe the newer write after it — the same "state
// as of the last positioning I/O" semantics the LSM scan path documents.
// Entries handed to a flush are frozen: flushing swaps the whole memtable
// out, Freeze hands the payload slab to the sstable without copying, and
// a frozen memtable's slabs are never written again.
package memtable

import (
	"math/rand"

	"repro/internal/slab"
)

const maxHeight = 12

// maxKeyLen bounds keys to the 16 bits reserved in the node meta word.
const maxKeyLen = 1<<16 - 1

// Entry is one key/value pair. Fields views the record's column values.
type Entry struct {
	Key    string
	Fields slab.FieldsView
}

// Node layout, in words relative to the node's arena offset. keyPfx and
// keyPfx2 are the key's first 16 bytes as two big-endian integers (zero
// padded), so the search hot loop orders nodes with one or two register
// compares and falls back to a byte-wise compare only on a double tie —
// sound because zero-padded big-endian prefix order is a coarsening of
// lexicographic order. dataRef locates the record's payload in the slab:
// key bytes first, field bytes contiguously after. meta packs
// keyLen(16) | fieldsLen(32) | height(8). The tower's next-links (one
// word per level, value = target node offset, 0 = nil) follow the header
// inline, so one cache line usually covers both the compare and the next
// hop.
const (
	nodeKeyPfx  = 0
	nodeKeyPfx2 = 1
	nodeDataRef = 2
	nodeMeta    = 3
	nodeShape   = 4
	nodeTower   = 5
)

// Word-arena chunk sizing: 32K words = 256 KiB per chunk. Offsets pack
// (chunk, word) so a chunk append never invalidates existing offsets,
// and a node is always contiguous within one chunk (max node size is
// nodeTower+maxHeight = 17 words).
const (
	arenaShift = 15
	arenaWords = 1 << arenaShift
	arenaMask  = arenaWords - 1
)

// wordArena is a chunked append-only uint64 arena addressed by packed
// (chunk<<15 | word) offsets.
type wordArena struct {
	chunks    [][]uint64
	allocated int64
}

// alloc carves words zeroed words, padding past a chunk tail rather than
// splitting a node across chunks.
func (a *wordArena) alloc(words int) uint64 {
	ci := len(a.chunks) - 1
	var c []uint64
	if ci >= 0 {
		c = a.chunks[ci]
	}
	if ci < 0 || cap(c)-len(c) < words {
		c = make([]uint64, 0, arenaWords)
		a.chunks = append(a.chunks, c)
		a.allocated += arenaWords * 8
		ci++
	}
	off := len(c)
	a.chunks[ci] = c[: off+words : cap(c)]
	return uint64(ci)<<arenaShift | uint64(off)
}

// keyPrefix is the shared big-endian prefix packing (see slab.KeyPrefix).
func keyPrefix(k string, off int) uint64 { return slab.KeyPrefix(k, off) }

// Memtable is an ordered map from string keys to field lists, implemented
// as a flat-arena skip list. It is not safe for concurrent use
// (simulated processes run one at a time).
type Memtable struct {
	arena  wordArena
	data   slab.Slab
	shapes slab.ShapeTable

	height int
	n      int
	bytes  int64
	frozen bool
	rng    *rand.Rand

	// randBits buffers 2-bit tower-height draws so most Puts consume no
	// fresh value from rng at all.
	randBits uint64
	randN    int
}

// New creates an empty memtable with a deterministic tower-height source.
func New(seed int64) *Memtable {
	m := &Memtable{
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
	// The head node occupies offset 0 with a full-height zeroed tower;
	// offset 0 doubles as the nil link because no tower ever points back
	// at the head.
	m.arena.alloc(nodeTower + maxHeight)
	return m
}

// nodeKey returns the key bytes of the node at off as a zero-copy string
// view (key bytes are never overwritten, so the view is stable).
func (m *Memtable) nodeKey(off uint64) string {
	c := m.arena.chunks[off>>arenaShift]
	b := off & arenaMask
	return m.data.String(slab.Ref(c[b+nodeDataRef]), int(c[b+nodeMeta]&0xffff))
}

// nodeEntry materializes the Entry view for the node at off.
func (m *Memtable) nodeEntry(off uint64) Entry {
	c := m.arena.chunks[off>>arenaShift]
	b := off & arenaMask
	meta := c[b+nodeMeta]
	keyLen := int(meta & 0xffff)
	fieldsLen := int(meta >> 16 & 0xffffffff)
	ref := slab.Ref(c[b+nodeDataRef])
	return Entry{
		Key: m.data.String(ref, keyLen),
		// Payload regions are contiguous within one chunk, so the field
		// bytes sit at ref+keyLen.
		Fields: slab.SlabView(
			m.data.View(ref+slab.Ref(keyLen), fieldsLen),
			m.shapes.Ends(uint32(c[b+nodeShape])),
		),
	}
}

// randomHeight draws a geometric(1/4) tower height from buffered random
// bits: two bits per level, one rng word per 32 level tests.
func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxHeight {
		if m.randN == 0 {
			m.randBits = m.rng.Uint64()
			m.randN = 32
		}
		bits := m.randBits & 3
		m.randBits >>= 2
		m.randN--
		if bits != 0 {
			break
		}
		h++
	}
	return h
}

// findGreaterOrEqual returns the offset of the first node with key >= k
// (0 if none) and fills prev with the rightmost node before it on each
// level. The paper-scale figure runs spend a third of their host CPU
// here, so the loop orders nodes by integer key prefix, falls back to a
// byte-wise compare only on a double tie, and reads successive hops from
// flat word chunks instead of chasing heap pointers.
func (m *Memtable) findGreaterOrEqual(k string, prev *[maxHeight]uint64) uint64 {
	pfx, pfx2 := keyPrefix(k, 0), keyPrefix(k, 8)
	chunks := m.arena.chunks
	x := uint64(0) // head
	xc := chunks[0]
	xb := uint64(0)
	for lvl := uint64(m.height - 1); ; lvl-- {
		for {
			nxt := xc[xb+nodeTower+lvl]
			if nxt == 0 {
				break
			}
			c := chunks[nxt>>arenaShift]
			b := nxt & arenaMask
			if npfx := c[b+nodeKeyPfx]; npfx != pfx {
				if npfx > pfx {
					break
				}
			} else if npfx2 := c[b+nodeKeyPfx2]; npfx2 != pfx2 {
				if npfx2 > pfx2 {
					break
				}
			} else if m.data.String(slab.Ref(c[b+nodeDataRef]), int(c[b+nodeMeta]&0xffff)) >= k {
				break
			}
			x, xc, xb = nxt, c, b
		}
		if prev != nil {
			prev[lvl] = x
		}
		if lvl == 0 {
			break
		}
	}
	return xc[xb+nodeTower]
}

// Put inserts or replaces the value for key, copying the field bytes into
// the memtable's slab. The caller keeps ownership of fields and may
// reuse it immediately.
func (m *Memtable) Put(key string, fields [][]byte) {
	if m.frozen {
		panic("memtable: Put on a frozen (flushed) memtable")
	}
	if len(key) > maxKeyLen {
		panic("memtable: key longer than 64 KiB")
	}
	var prev [maxHeight]uint64
	x := m.findGreaterOrEqual(key, &prev)
	if x != 0 && m.nodeKey(x) == key {
		m.replace(x, fields)
		return
	}
	h := m.randomHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			prev[lvl] = 0 // head
		}
		m.height = h
	}
	shape, fieldsLen := m.shapes.Intern(fields)
	ref, buf := m.data.Alloc(len(key) + fieldsLen)
	p := copy(buf, key)
	for _, f := range fields {
		p += copy(buf[p:], f)
	}
	off := m.arena.alloc(nodeTower + h)
	chunks := m.arena.chunks // re-read: alloc may have appended a chunk
	c := chunks[off>>arenaShift]
	b := off & arenaMask
	c[b+nodeKeyPfx] = keyPrefix(key, 0)
	c[b+nodeKeyPfx2] = keyPrefix(key, 8)
	c[b+nodeDataRef] = uint64(ref)
	c[b+nodeMeta] = uint64(len(key)) | uint64(fieldsLen)<<16 | uint64(h)<<48
	c[b+nodeShape] = uint64(shape)
	for lvl := uint64(0); lvl < uint64(h); lvl++ {
		pc := chunks[prev[lvl]>>arenaShift]
		pb := prev[lvl]&arenaMask + nodeTower + lvl
		c[b+nodeTower+lvl] = pc[pb]
		pc[pb] = off
	}
	m.n++
	m.bytes += int64(len(key) + fieldsLen)
}

// replace overwrites an existing node's fields. When the new field set
// has the same shape (count and per-field length) the bytes are copied
// in place; otherwise a fresh slab region is carved — including a new
// copy of the key, so key+fields stay contiguous — and the old region is
// left to the slab (reclaimed when the memtable is dropped after flush).
func (m *Memtable) replace(x uint64, fields [][]byte) {
	c := m.arena.chunks[x>>arenaShift]
	b := x & arenaMask
	shape, fieldsLen := m.shapes.Intern(fields)
	meta := c[b+nodeMeta]
	keyLen := int(meta & 0xffff)
	oldFieldsLen := int(meta >> 16 & 0xffffffff)
	if uint64(shape) == c[b+nodeShape] {
		buf := m.data.View(slab.Ref(c[b+nodeDataRef])+slab.Ref(keyLen), fieldsLen)
		p := 0
		for _, f := range fields {
			p += copy(buf[p:], f)
		}
	} else {
		oldKey := m.data.View(slab.Ref(c[b+nodeDataRef]), keyLen)
		ref, buf := m.data.Alloc(keyLen + fieldsLen)
		p := copy(buf, oldKey)
		for _, f := range fields {
			p += copy(buf[p:], f)
		}
		c[b+nodeDataRef] = uint64(ref)
		c[b+nodeShape] = uint64(shape)
		c[b+nodeMeta] = meta&^uint64(0xffffffff<<16) | uint64(fieldsLen)<<16
	}
	m.bytes += int64(fieldsLen) - int64(oldFieldsLen)
}

// Get returns a view of the fields for key and whether it was present.
func (m *Memtable) Get(key string) (slab.FieldsView, bool) {
	x := m.findGreaterOrEqual(key, nil)
	if x != 0 && m.nodeKey(x) == key {
		c := m.arena.chunks[x>>arenaShift]
		b := x & arenaMask
		meta := c[b+nodeMeta]
		keyLen := slab.Ref(meta & 0xffff)
		fieldsLen := int(meta >> 16 & 0xffffffff)
		return slab.SlabView(
			m.data.View(slab.Ref(c[b+nodeDataRef])+keyLen, fieldsLen),
			m.shapes.Ends(uint32(c[b+nodeShape])),
		), true
	}
	return slab.FieldsView{}, false
}

// Gather is the bounded k-way merge behind range scans over memtables
// that hold disjoint keys — the partitions of a hash-sharded in-memory
// store (VoltDB sites, sharded Redis instances). Each Scan walks one
// partition from the scan's start and merges it straight into a running
// result of at most count entries, so rows the bound discards are never
// materialized or sorted. Disjoint keys (one owner per key) mean the
// merge never meets a tie.
//
// After the last Scan a Gather is a cursor over its result in key order:
// Next/Key/Fields/Close satisfy store.Cursor. The entries are views taken
// at Scan time, with the same ownership rules as Get's.
type Gather struct {
	count       int
	rows, spare []Entry
	pos         int
}

// NewGather starts a gather that keeps the count smallest keys.
func NewGather(count int) *Gather { return &Gather{count: count} }

// Scan merges m's entries with keys >= start into the result and reports
// how many entries it walked: min(count, entries >= start), the row count
// a materialized count-bounded scan of m returns. The walk always covers
// that many nodes, but only entries that can still make the bound are
// materialized. m's keys must be disjoint from those already gathered.
func (g *Gather) Scan(m *Memtable, start string) int {
	if g.count <= 0 {
		return 0
	}
	x := m.findGreaterOrEqual(start, nil)
	if x == 0 {
		return 0
	}
	if need := min(g.count, len(g.rows)+m.n); cap(g.spare) < need {
		g.spare = make([]Entry, 0, need)
	}
	out, rows, i := g.spare[:0], g.rows, 0
	walked := 0
	// Every walked node either lands in out or fills it, so walked never
	// passes len(out) here.
	for ; x != 0 && len(out) < g.count; x = m.next(x) {
		k := m.nodeKey(x)
		for i < len(rows) && rows[i].Key < k && len(out) < g.count {
			out = append(out, rows[i])
			i++
		}
		if len(out) < g.count {
			out = append(out, m.nodeEntry(x))
		}
		walked++
	}
	// The bound is full: the rest of the walk only counts nodes.
	for ; x != 0 && walked < g.count; x = m.next(x) {
		walked++
	}
	for ; i < len(rows) && len(out) < g.count; i++ {
		out = append(out, rows[i])
	}
	g.rows, g.spare = out, rows
	return walked
}

// Next advances the cursor and reports whether an entry exists.
func (g *Gather) Next() bool {
	if g.pos >= len(g.rows) {
		return false
	}
	g.pos++
	return true
}

// Key returns the current entry's key; valid after Next reports true.
func (g *Gather) Key() string { return g.rows[g.pos-1].Key }

// Fields returns the current entry's field view.
func (g *Gather) Fields() slab.FieldsView { return g.rows[g.pos-1].Fields }

// Close releases the gathered entries.
func (g *Gather) Close() error {
	g.rows, g.spare = nil, nil
	return nil
}

// next returns the offset of the node after x on the bottom level.
func (m *Memtable) next(x uint64) uint64 {
	return m.arena.chunks[x>>arenaShift][x&arenaMask+nodeTower]
}

// Len returns the number of entries.
func (m *Memtable) Len() int { return m.n }

// Bytes returns the payload size of all entries (keys + field bytes).
func (m *Memtable) Bytes() int64 { return m.bytes }

// SlabBytes returns the heap footprint of the memtable's arenas: node
// words plus payload slab capacity (apmbench -memstats).
func (m *Memtable) SlabBytes() int64 {
	return m.arena.allocated + m.data.Allocated()
}

// All returns every entry in key order (used by tests; the flush path
// uses Freeze for a zero-copy handoff).
func (m *Memtable) All() []Entry {
	out := make([]Entry, 0, m.n)
	for x := m.next(0); x != 0; x = m.next(x) {
		out = append(out, m.nodeEntry(x))
	}
	return out
}

// Iter calls fn for each entry in key order until fn returns false.
func (m *Memtable) Iter(fn func(Entry) bool) {
	for x := m.next(0); x != 0; x = m.next(x) {
		if !fn(m.nodeEntry(x)) {
			return
		}
	}
}

// FlushEntry locates one record inside the slabs handed over by Freeze:
// payload at Ref (key bytes, then field bytes), layout as a shape index
// into the transferred ShapeTable.
type FlushEntry struct {
	KeyPfx, KeyPfx2 uint64
	Ref             slab.Ref
	KeyLen          int
	FieldsLen       int
	Shape           uint32
}

// Freeze marks the memtable immutable, streams every entry in key order
// to fn, and returns the payload slab and shape table for zero-copy
// reuse by the flushed sstable. The slabs are shared, not moved:
// outstanding scan iterators keep reading the frozen skip list, whose
// bytes are never written again; the word arena is freed with the
// memtable while the payload chunks live on inside the table.
func (m *Memtable) Freeze(fn func(FlushEntry)) (slab.Slab, slab.ShapeTable) {
	m.frozen = true
	for x := m.next(0); x != 0; x = m.next(x) {
		c := m.arena.chunks[x>>arenaShift]
		b := x & arenaMask
		meta := c[b+nodeMeta]
		fn(FlushEntry{
			KeyPfx:    c[b+nodeKeyPfx],
			KeyPfx2:   c[b+nodeKeyPfx2],
			Ref:       slab.Ref(c[b+nodeDataRef]),
			KeyLen:    int(meta & 0xffff),
			FieldsLen: int(meta >> 16 & 0xffffffff),
			Shape:     uint32(c[b+nodeShape]),
		})
	}
	return m.data, m.shapes
}

// Iterator is a forward cursor over the skip list's bottom level. It is a
// small value type so callers can hold and advance one without
// allocating; the LSM scan path merges these against SSTable iterators.
type Iterator struct {
	m *Memtable
	x uint64
}

// SeekIter returns an iterator positioned at the first entry with key >=
// start. Mutating the memtable invalidates outstanding iterators.
func (m *Memtable) SeekIter(start string) Iterator {
	return Iterator{m: m, x: m.findGreaterOrEqual(start, nil)}
}

// Valid reports whether the iterator points at an entry.
func (it Iterator) Valid() bool { return it.x != 0 }

// Entry returns the current entry. It must not be called on an invalid
// iterator.
func (it Iterator) Entry() Entry { return it.m.nodeEntry(it.x) }

// Key returns the current entry's key without decoding its fields. It
// must not be called on an invalid iterator.
func (it Iterator) Key() string { return it.m.nodeKey(it.x) }

// Next advances to the following entry in key order.
func (it *Iterator) Next() { it.x = it.m.next(it.x) }
