// Package sstable implements immutable sorted string tables: the on-disk
// runs produced by LSM memtable flushes and compactions (Cassandra SSTables,
// HBase HFiles). Tables carry a Bloom filter and per-cell format overhead
// accounting, which is what makes the disk-usage experiment (paper Fig 17)
// reproducible: the stores blow up 75-byte records by storing schema and
// version information with every cell.
//
// A table's retained state is pointer-free: entries are fixed-size scalar
// records ([]entryMeta — key prefix pair, slab ref, packed lengths) over
// key+field payload bytes held in a slab.Slab, so a multi-million-entry
// table is a few large buffers the garbage collector never has to walk.
// The flush path (FromMemtable) adopts the frozen memtable's payload slab
// without copying a byte; compactions copy surviving payloads into the
// merged table's own slab, which is what reclaims dead versions.
package sstable

import (
	"cmp"
	"sort"
	"strings"

	"repro/internal/bloom"
	"repro/internal/memtable"
	"repro/internal/slab"
)

// entryMeta is one entry's location: the key's 16-byte prefix pair for
// register compares, the payload ref (key bytes then field bytes,
// contiguous), and keyLen(16) | fieldsLen(32) | shape(16) packed.
type entryMeta struct {
	keyPfx  uint64
	keyPfx2 uint64
	ref     slab.Ref
	meta    uint64
}

func packMeta(keyLen, fieldsLen int, shape uint32) uint64 {
	if shape > 0xffff {
		panic("sstable: shape table overflow")
	}
	return uint64(keyLen) | uint64(fieldsLen)<<16 | uint64(shape)<<48
}

// Table is an immutable sorted run.
type Table struct {
	Gen    int // generation: higher = newer data wins during merges
	meta   []entryMeta
	data   slab.Slab
	shapes slab.ShapeTable
	filter *bloom.Filter
	minKey string
	maxKey string
	// DiskBytes is the modeled on-disk size: payload plus per-cell and
	// per-entry format overhead.
	DiskBytes int64
}

// Overhead describes the on-disk format cost of a table beyond raw payload.
type Overhead struct {
	PerEntry int64 // per row: row header, key length fields, index entry share
	PerCell  int64 // per column: column name, timestamp, length, version info
}

// keyAt returns entry i's key as a zero-copy view into the slab.
func (t *Table) keyAt(i int) string {
	m := t.meta[i]
	return t.data.String(m.ref, int(m.meta&0xffff))
}

// fieldsAt returns entry i's field view.
func (t *Table) fieldsAt(i int) slab.FieldsView {
	m := t.meta[i]
	keyLen := m.meta & 0xffff
	fieldsLen := int(m.meta >> 16 & 0xffffffff)
	return slab.SlabView(
		t.data.View(m.ref+slab.Ref(keyLen), fieldsLen),
		t.shapes.Ends(uint32(m.meta>>48)),
	)
}

func (t *Table) entryAt(i int) memtable.Entry {
	return memtable.Entry{Key: t.keyAt(i), Fields: t.fieldsAt(i)}
}

// search returns the index of the first entry with key >= key, resolving
// almost every probe with the prefix pair in registers.
func (t *Table) search(key string) int {
	pfx, pfx2 := slab.KeyPrefix(key, 0), slab.KeyPrefix(key, 8)
	lo, hi := 0, len(t.meta)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := &t.meta[mid]
		var ge bool
		if m.keyPfx != pfx {
			ge = m.keyPfx > pfx
		} else if m.keyPfx2 != pfx2 {
			ge = m.keyPfx2 > pfx2
		} else {
			ge = t.keyAt(mid) >= key
		}
		if ge {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// builder assembles a table by copying entries into its own slabs.
type builder struct {
	t       *Table
	scratch []uint32
}

func newBuilder(gen, n int) *builder {
	return &builder{t: &Table{Gen: gen, meta: make([]entryMeta, 0, n)}}
}

// add appends one entry (keys must arrive in ascending order, no
// duplicates), copying key and field bytes into the table's slab.
func (b *builder) add(key string, fields slab.FieldsView) {
	t := b.t
	var shape uint32
	fieldsLen := int(fields.Bytes())
	if data, ends, ok := fields.Slab(); ok {
		shape = t.shapes.InternEnds(ends)
		ref, buf := t.data.Alloc(len(key) + fieldsLen)
		p := copy(buf, key)
		copy(buf[p:], data)
		t.meta = append(t.meta, entryMeta{
			keyPfx:  slab.KeyPrefix(key, 0),
			keyPfx2: slab.KeyPrefix(key, 8),
			ref:     ref,
			meta:    packMeta(len(key), fieldsLen, shape),
		})
		return
	}
	n := fields.Len()
	b.scratch = b.scratch[:0]
	acc := uint32(0)
	for i := 0; i < n; i++ {
		acc += uint32(len(fields.Field(i)))
		b.scratch = append(b.scratch, acc)
	}
	shape = t.shapes.InternEnds(b.scratch)
	ref, buf := t.data.Alloc(len(key) + fieldsLen)
	p := copy(buf, key)
	for i := 0; i < n; i++ {
		p += copy(buf[p:], fields.Field(i))
	}
	t.meta = append(t.meta, entryMeta{
		keyPfx:  slab.KeyPrefix(key, 0),
		keyPfx2: slab.KeyPrefix(key, 8),
		ref:     ref,
		meta:    packMeta(len(key), fieldsLen, shape),
	})
}

// finalize computes the Bloom filter, disk accounting and key range. The
// filter is built from the sorted entry sequence, so any construction
// path (flush handoff, test build, merge) yields an identical filter for
// identical contents.
func (t *Table) finalize(ov Overhead, fpp float64) {
	t.filter = bloom.New(len(t.meta), fpp)
	for i := range t.meta {
		t.filter.Add(t.keyAt(i))
		md := t.meta[i].meta
		keyLen := int64(md & 0xffff)
		fieldsLen := int64(md >> 16 & 0xffffffff)
		cells := int64(len(t.shapes.Ends(uint32(md >> 48))))
		t.DiskBytes += keyLen + ov.PerEntry + fieldsLen + cells*ov.PerCell
	}
	if len(t.meta) > 0 {
		t.minKey = t.keyAt(0)
		t.maxKey = t.keyAt(len(t.meta) - 1)
	}
}

// FromMemtable flushes a frozen memtable into a table without copying
// payload bytes: the skip list streams its entries in key order and
// hands its payload slab and shape table over; only the fixed-size
// entryMeta records are built fresh. The memtable must not be written
// again (Freeze enforces this); outstanding readers of the frozen
// memtable remain valid because the slabs are shared, not moved.
func FromMemtable(gen int, m *memtable.Memtable, ov Overhead, fpp float64) *Table {
	t := &Table{Gen: gen, meta: make([]entryMeta, 0, m.Len())}
	t.data, t.shapes = m.Freeze(func(e memtable.FlushEntry) {
		t.meta = append(t.meta, entryMeta{
			keyPfx:  e.KeyPfx,
			keyPfx2: e.KeyPfx2,
			ref:     e.Ref,
			meta:    packMeta(e.KeyLen, e.FieldsLen, e.Shape),
		})
	})
	t.finalize(ov, fpp)
	return t
}

// Build creates a table from entries (they will be sorted; later duplicates
// win). fpp is the Bloom filter false-positive target.
func Build(gen int, entries []memtable.Entry, ov Overhead, fpp float64) *Table {
	sorted := make([]memtable.Entry, len(entries))
	copy(sorted, entries)
	// The stable sort keeps duplicates in input order, so BuildSorted's
	// last-occurrence-wins dedup preserves newest-write-wins.
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	return BuildSorted(gen, sorted, ov, fpp)
}

// BuildSorted creates a table from entries already in ascending key order
// (duplicate keys adjacent, later occurrence wins). Key and field bytes
// are copied into the table's own slab.
func BuildSorted(gen int, entries []memtable.Entry, ov Overhead, fpp float64) *Table {
	b := newBuilder(gen, len(entries))
	for i := 0; i < len(entries); i++ {
		if i+1 < len(entries) && entries[i+1].Key == entries[i].Key {
			continue
		}
		b.add(entries[i].Key, entries[i].Fields)
	}
	b.t.finalize(ov, fpp)
	return b.t
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.meta) }

// KeyRange returns the smallest and largest keys.
func (t *Table) KeyRange() (string, string) { return t.minKey, t.maxKey }

// SlabBytes returns the heap footprint of the table's payload slab
// (apmbench -memstats). Shared flush-handoff chunks are attributed to
// the table, which outlives the memtable they came from.
func (t *Table) SlabBytes() int64 {
	return t.data.Allocated() + int64(len(t.meta))*32
}

// MayContain consults the Bloom filter and key range.
func (t *Table) MayContain(key string) bool {
	if len(t.meta) == 0 || key < t.minKey || key > t.maxKey {
		return false
	}
	return t.filter.MayContain(key)
}

// Get returns a view of the fields for key.
func (t *Table) Get(key string) (slab.FieldsView, bool) {
	i := t.search(key)
	if i < len(t.meta) && t.keyAt(i) == key {
		return t.fieldsAt(i), true
	}
	return slab.FieldsView{}, false
}

// Scan returns up to count entries with keys >= start.
func (t *Table) Scan(start string, count int) []memtable.Entry {
	i := t.search(start)
	end := i + count
	if end > len(t.meta) {
		end = len(t.meta)
	}
	out := make([]memtable.Entry, end-i)
	for j := range out {
		out[j] = t.entryAt(i + j)
	}
	return out
}

// FilterBytes returns the Bloom filter's memory footprint.
func (t *Table) FilterBytes() int64 { return t.filter.SizeBytes() }

// Iterator is a forward cursor over a table's entries. Tables are immutable,
// so iterators stay valid for the table's lifetime.
type Iterator struct {
	t *Table
	i int
}

// SeekIter returns an iterator positioned at the first entry with key >=
// start.
func (t *Table) SeekIter(start string) Iterator {
	return Iterator{t: t, i: t.search(start)}
}

// Valid reports whether the iterator points at an entry.
func (it Iterator) Valid() bool { return it.i < len(it.t.meta) }

// Entry returns the current entry. It must not be called on an invalid
// iterator.
func (it Iterator) Entry() memtable.Entry { return it.t.entryAt(it.i) }

// Key returns the current entry's key without decoding its fields. It
// must not be called on an invalid iterator.
func (it Iterator) Key() string { return it.t.keyAt(it.i) }

// Next advances to the following entry.
func (it *Iterator) Next() { it.i++ }

// cmp orders the current keys of two valid iterators, resolving almost
// every comparison on the prefix pair.
func (it Iterator) cmp(o Iterator) int {
	a, b := &it.t.meta[it.i], &o.t.meta[o.i]
	if a.keyPfx != b.keyPfx {
		return cmp.Compare(a.keyPfx, b.keyPfx)
	}
	if a.keyPfx2 != b.keyPfx2 {
		return cmp.Compare(a.keyPfx2, b.keyPfx2)
	}
	return strings.Compare(it.Key(), o.Key())
}

// Merge combines tables into one run; for duplicate keys the entry from the
// table with the highest generation wins. The result's generation is the
// maximum input generation. Inputs are already sorted, so this is a
// streaming k-way merge: O(n·k) comparisons with one pass and no
// intermediate map or re-sort. Surviving payloads are copied into the
// merged table's slab, so dead versions' bytes are reclaimed when the
// inputs are dropped.
func Merge(tables []*Table, ov Overhead, fpp float64) *Table {
	total := 0
	maxGen := 0
	iters := make([]Iterator, len(tables))
	for i, t := range tables {
		total += t.Len()
		if t.Gen > maxGen {
			maxGen = t.Gen
		}
		iters[i] = t.SeekIter("")
	}
	b := newBuilder(maxGen, total)
	for {
		// Pick the smallest current key; among duplicates the entry from
		// the highest-generation table wins and the others are skipped.
		// Linear scan over k sources: compaction fan-in is small (a tier),
		// so this beats maintaining a heap. Comparisons read keys only
		// (prefix words first); fields are decoded once, for the
		// surviving entry.
		best := -1
		for i := range iters {
			if !iters[i].Valid() {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			if c := iters[i].cmp(iters[best]); c < 0 || (c == 0 && tables[i].Gen > tables[best].Gen) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		win := iters[best]
		b.add(win.Key(), win.t.fieldsAt(win.i))
		// Consume this key from every source.
		for i := range iters {
			for iters[i].Valid() && iters[i].cmp(win) == 0 {
				iters[i].Next()
			}
		}
	}
	b.t.finalize(ov, fpp)
	return b.t
}
