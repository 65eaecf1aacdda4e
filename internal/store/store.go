// Package store defines the common interface implemented by the six
// benchmarked data store models, plus the record shape of the APM use case:
// a 25-byte key and five 10-byte value fields (75 bytes raw, paper §3).
package store

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/slab"
)

// NumFields is the number of value fields per record.
const NumFields = 5

// FieldBytes is the size of each value field.
const FieldBytes = 10

// KeyBytes is the key length.
const KeyBytes = 25

// RawRecordBytes is the raw payload per record (key excluded, as in the
// paper's "700 MB of raw data per node" for 10M records).
const RawRecordBytes = NumFields*FieldBytes + KeyBytes

// Fields is a record's value fields, in the materialized form write
// paths build (Insert/Update/Load take Fields).
type Fields [][]byte

// FieldsView is the read-side counterpart: an allocation-free, read-only
// view of a record's field values, usually backed by a store-owned slab
// region (see package slab). Read and Scan return views so a point read
// over slab-backed engines touches no per-record heap objects; call
// Materialize (or View per field) only when bytes must outlive the
// operation.
type FieldsView = slab.FieldsView

// ViewFields wraps materialized fields as a view without copying.
func ViewFields(f Fields) FieldsView { return slab.View(f) }

// Record is a key with a view of its fields.
type Record struct {
	Key    string
	Fields FieldsView
}

// Cursor streams a scan's records in key order. Next advances to the next
// record and reports whether one exists; Key and Fields are valid until the
// next call to Next or Close. Views alias store-owned memory, like Read's.
//
// Opening a cursor charges the scan's virtual time up front — positioning
// I/O, per-row CPU, cross-node transfer — exactly as the historical
// materialized Scan did; consuming or abandoning the cursor is host-side
// only. That keeps every cached cell result stable across the API change
// while letting the query layer stream instead of building slices.
type Cursor interface {
	Next() bool
	Key() string
	Fields() FieldsView
	Close() error
}

// sliceCursor adapts a materialized record slice to the Cursor interface.
type sliceCursor struct {
	recs []Record
	i    int
}

func (c *sliceCursor) Next() bool {
	if c.i >= len(c.recs) {
		return false
	}
	c.i++
	return true
}

func (c *sliceCursor) Key() string        { return c.recs[c.i-1].Key }
func (c *sliceCursor) Fields() FieldsView { return c.recs[c.i-1].Fields }
func (c *sliceCursor) Close() error       { c.recs = nil; return nil }

// NewSliceCursor wraps already-materialized records as a Cursor. Store
// implementations whose distributed read path must gather and order rows
// before any can be returned (coordinator merges, multi-shard gathers) use
// it as their cursor backing.
func NewSliceCursor(recs []Record) Cursor { return &sliceCursor{recs: recs} }

// ScanAll opens a cursor on s and drains it into a slice: the materialized
// form the historical Scan returned, kept as a shim for tests and callers
// that want the whole result at once.
func ScanAll(p *sim.Proc, s Store, start string, count int) ([]Record, error) {
	cur, err := s.Scan(p, start, count)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []Record
	for cur.Next() {
		out = append(out, Record{Key: cur.Key(), Fields: cur.Fields()})
	}
	return out, nil
}

// Key formats record number i as the fixed-width 25-byte benchmark key.
// Like YCSB's default (insertorder=hashed), the record number is hashed so
// that key ranges are uniformly loaded even though records are inserted in
// sequence; fixed-width zero-padded decimals make lexicographic order equal
// numeric order, which ordered stores (HBase) rely on. Every simulated
// operation builds at least one key, so the digits are written directly
// into a fixed buffer (a 21-digit zero-padded uint64 after the "user"
// prefix) instead of going through fmt.
func Key(i int64) string {
	var b [KeyBytes]byte
	writeKey(&b, i)
	return string(b[:])
}

// AppendKey appends record i's key to dst and returns the extended slice:
// Key without the string allocation. Hot loops (the YCSB runner's
// per-client operation loop, the load loop) keep one buffer and rebuild it
// per operation; against stores that copy key bytes on ingest (see
// CopiesOnIngest) that removes the last per-operation allocation of the
// insert path.
func AppendKey(dst []byte, i int64) []byte {
	var b [KeyBytes]byte
	writeKey(&b, i)
	return append(dst, b[:]...)
}

func writeKey(b *[KeyBytes]byte, i int64) {
	b[0], b[1], b[2], b[3] = 'u', 's', 'e', 'r'
	v := permute(uint64(i))
	for j := KeyBytes - 1; j >= 4; j-- {
		b[j] = '0' + byte(v%10)
		v /= 10
	}
}

// permute is MurmurHash3's 64-bit finalizer: a bijective mixer, so distinct
// record numbers always produce distinct keys.
func permute(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// MakeFields builds a deterministic 5x10-byte field set for record i.
func MakeFields(i int64) Fields { return MakeFieldsSized(i, FieldBytes) }

// MakeFieldsSized builds a deterministic field set with fieldBytes bytes per
// field (0 or negative means the default FieldBytes), for workloads that
// vary record size. The default size reproduces MakeFields exactly: nine
// zero-padded digits of i then the field index; larger fields repeat that
// 10-byte pattern, so byte accounting scales without new entropy. All
// fields share one backing slab, so a record costs 2 allocations (header
// slice + slab) instead of the historical 6.
func MakeFieldsSized(i int64, fieldBytes int) Fields {
	return FillFields(nil, i, fieldBytes)
}

// FillFields is MakeFieldsSized writing into a caller-owned buffer: when
// dst has NumFields entries each with capacity for fieldBytes bytes, the
// field patterns are written in place and no allocation happens. A nil or
// mis-shaped dst is (re)built as a fresh slab. It returns the filled
// buffer, which callers keep for the next record.
//
// Reusing one buffer across operations is only sound against stores that
// copy field bytes on ingest — gate the reuse on CopiesOnIngest.
func FillFields(dst Fields, i int64, fieldBytes int) Fields {
	if fieldBytes <= 0 {
		fieldBytes = FieldBytes
	}
	fit := len(dst) == NumFields
	if fit {
		for _, f := range dst {
			if cap(f) < fieldBytes {
				fit = false
				break
			}
		}
	}
	if !fit {
		dst = make(Fields, NumFields)
		slab := make([]byte, NumFields*fieldBytes)
		for j := range dst {
			dst[j] = slab[j*fieldBytes : (j+1)*fieldBytes : (j+1)*fieldBytes]
		}
	}
	var pat [FieldBytes]byte
	v := i % 1e9
	if v < 0 {
		v = -v
	}
	for k := FieldBytes - 2; k >= 0; k-- {
		pat[k] = '0' + byte(v%10)
		v /= 10
	}
	for j := range dst {
		pat[FieldBytes-1] = '0' + byte(j)
		b := dst[j][:fieldBytes]
		for k := 0; k < len(b); k += FieldBytes {
			copy(b[k:], pat[:])
		}
		dst[j] = b
	}
	return dst
}

// Clone returns a deep copy of f (headers and bytes). Write paths that
// retain fields beyond the operation's return — e.g. a mutation applied
// asynchronously after the client is acknowledged — must clone first when
// the caller may be reusing a FillFields buffer.
func (f Fields) Clone() Fields {
	if f == nil {
		return nil
	}
	out := make(Fields, len(f))
	total := 0
	for _, v := range f {
		total += len(v)
	}
	slab := make([]byte, 0, total)
	for i, v := range f {
		slab = append(slab, v...)
		out[i] = slab[len(slab)-len(v) : len(slab) : len(slab)]
	}
	return out
}

// ErrNotFound is returned when a read misses.
var ErrNotFound = errors.New("store: key not found")

// ErrScansUnsupported is returned by stores without scan support (the
// Voldemort YCSB client in the paper).
var ErrScansUnsupported = errors.New("store: scans not supported")

// ErrOverloaded is returned when a store rejects work (e.g. a Redis shard
// out of memory).
var ErrOverloaded = errors.New("store: node overloaded")

// ErrUnavailable is returned when the node(s) that must serve an operation
// are down (fault injection) and no replica can fail over. Clients should
// back off before retrying: the failure is instant, so a tight retry loop
// would not advance virtual time.
var ErrUnavailable = errors.New("store: node unavailable")

// IngestCopier is implemented by stores whose Insert/Update/Load paths
// copy key and field bytes before retaining them (slab-backed engines:
// their arenas own both), and whose Read/Scan paths do not retain the
// lookup key at all. A store that retains any caller bytes past an
// operation's return must clone them first (see the Cassandra async
// replica) or must not implement the interface.
type IngestCopier interface {
	CopiesOnIngest() bool
}

// CopiesOnIngest reports whether s copies key and field bytes on ingest,
// meaning a caller may reuse one FillFields buffer — and one AppendKey
// buffer — across operations. Stores that do not declare the capability
// are assumed to retain the caller's slices and strings.
func CopiesOnIngest(s Store) bool {
	c, ok := s.(IngestCopier)
	return ok && c.CopiesOnIngest()
}

// Caps describes a store's read-side capabilities. Every scanning store
// returns key-ordered results, so Scans also gates the analytic query layer
// (internal/query), whose per-metric range pipelines read through Scan.
type Caps struct {
	// Scans reports whether Scan is implemented (the Voldemort YCSB
	// client in the paper has no scan operation).
	Scans bool
}

// ScanStatsReporter is implemented by stores whose engines keep scan-path
// counters: how many sstables paid a positioning charge and how many were
// pruned by their key range before charging anything. The harness's
// -memstats diagnostics surface them per cell.
type ScanStatsReporter interface {
	ScanStats() (positioned, pruned int64)
}

// ScanStatsOf reports s's scan-path counters, or ok=false if the store
// does not expose them.
func ScanStatsOf(s Store) (positioned, pruned int64, ok bool) {
	r, isR := s.(ScanStatsReporter)
	if !isR {
		return 0, 0, false
	}
	positioned, pruned = r.ScanStats()
	return positioned, pruned, true
}

// SlabReporter is implemented by stores that can report how many bytes of
// slab-backed record state (keys, field payloads, index arenas) they
// retain. The harness's -memstats diagnostics use it to attribute
// host-side memory to the simulated store under test.
type SlabReporter interface {
	SlabBytes() int64
}

// SlabBytesOf reports s's retained slab bytes, or (0, false) if the store
// does not expose them.
func SlabBytesOf(s Store) (int64, bool) {
	r, ok := s.(SlabReporter)
	if !ok {
		return 0, false
	}
	return r.SlabBytes(), true
}

// Store is a simulated data store deployed across a cluster. All timed
// methods run inside a simulation process and advance virtual time by the
// full client-observed operation latency.
type Store interface {
	// Name identifies the system ("cassandra", "hbase", ...).
	Name() string
	// Insert appends a new record (APM data is append-only).
	Insert(p *sim.Proc, key string, f Fields) error
	// Update overwrites an existing record.
	Update(p *sim.Proc, key string, f Fields) error
	// Read fetches all fields of one record. The returned view aliases
	// store-owned memory and is valid until the next operation against
	// the store.
	Read(p *sim.Proc, key string) (FieldsView, error)
	// Scan opens a cursor over up to count records with keys >= start.
	// All virtual time the scan costs is charged before Scan returns;
	// draining the cursor is free (see Cursor). Use ScanAll to
	// materialize the result.
	Scan(p *sim.Proc, start string, count int) (Cursor, error)
	// Caps reports the store's read-side capabilities.
	Caps() Caps
	// Load inserts a record without consuming virtual time; used to
	// populate the store before a measured run. Disk/memory accounting
	// still happens.
	Load(key string, f Fields) error
	// DiskUsage returns durable bytes across all nodes.
	DiskUsage() int64
}
