package memtable

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func f1(s string) [][]byte { return [][]byte{[]byte(s)} }

func field0(e Entry) string { return string(e.Fields.Field(0)) }

func TestPutGet(t *testing.T) {
	m := New(1)
	m.Put("b", f1("vb"))
	m.Put("a", f1("va"))
	m.Put("c", f1("vc"))
	for _, k := range []string{"a", "b", "c"} {
		v, ok := m.Get(k)
		if !ok || string(v.Field(0)) != "v"+k {
			t.Fatalf("Get(%q) = %v, %v", k, v, ok)
		}
	}
	if _, ok := m.Get("d"); ok {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestPutReplaces(t *testing.T) {
	m := New(1)
	m.Put("k", f1("v1"))
	m.Put("k", f1("v2"))
	if m.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", m.Len())
	}
	v, _ := m.Get("k")
	if string(v.Field(0)) != "v2" {
		t.Fatalf("value = %s, want v2", v.Field(0))
	}
}

func TestScanOrderedFromStart(t *testing.T) {
	m := New(1)
	for i := 9; i >= 0; i-- {
		m.Put(fmt.Sprintf("k%02d", i), f1("v"))
	}
	got := scan(m, "k03", 4)
	if len(got) != 4 {
		t.Fatalf("scan returned %d entries, want 4", len(got))
	}
	want := []string{"k03", "k04", "k05", "k06"}
	for i, e := range got {
		if e.Key != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, e.Key, want[i])
		}
	}
}

func TestScanStartBetweenKeys(t *testing.T) {
	m := New(1)
	m.Put("a", f1("v"))
	m.Put("c", f1("v"))
	got := scan(m, "b", 10)
	if len(got) != 1 || got[0].Key != "c" {
		t.Fatalf("scan from between keys = %v, want [c]", got)
	}
}

func TestScanPastEnd(t *testing.T) {
	m := New(1)
	m.Put("a", f1("v"))
	if got := scan(m, "z", 5); len(got) != 0 {
		t.Fatalf("scan past end returned %v", got)
	}
}

// scan is a one-partition gather: up to count entries with keys >= start.
func scan(m *Memtable, start string, count int) []Entry {
	g := NewGather(count)
	g.Scan(m, start)
	return drain(g)
}

// drain consumes a gather as a cursor.
func drain(g *Gather) []Entry {
	var out []Entry
	for g.Next() {
		out = append(out, Entry{Key: g.Key(), Fields: g.Fields()})
	}
	return out
}

// refScan is the materializing count-bounded scan Gather replaced, walked
// through the public iterator.
func refScan(m *Memtable, start string, count int) []Entry {
	var out []Entry
	for it := m.SeekIter(start); it.Valid() && len(out) < count; it.Next() {
		out = append(out, it.Entry())
	}
	return out
}

// TestGatherMatchesSortedConcat pins the bounded k-way gather against the
// gather-then-sort it replaced: over random partitions holding disjoint
// keys (some empty), random starts (past the last key included) and
// bounds (0 and beyond the rows available included), the result equals
// every partition's scan concatenated, sorted and truncated to count, and
// each partition reports exactly the rows its own bounded scan returns —
// the count VoltDB charges per-row CPU on.
func TestGatherMatchesSortedConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		parts := make([]*Memtable, 1+rng.Intn(6))
		for i := range parts {
			parts[i] = New(int64(trial*10 + i))
		}
		// Hash-style ownership gives each key exactly one partition;
		// partitions past live stay empty. Repeated keys take the
		// replace path on their owner.
		live := 1 + rng.Intn(len(parts))
		for k := rng.Intn(200); k > 0; k-- {
			key := fmt.Sprintf("user%06d", rng.Intn(5000))
			h := fnv.New32a()
			h.Write([]byte(key))
			parts[int(h.Sum32()%uint32(live))].Put(key, f1(fmt.Sprintf("v%d", k)))
		}
		start := fmt.Sprintf("user%06d", rng.Intn(5200))
		if rng.Intn(10) == 0 {
			start = ""
		}
		count := rng.Intn(60)
		if rng.Intn(10) == 0 {
			count = 1000
		}
		g := NewGather(count)
		var concat []Entry
		for i, m := range parts {
			want := refScan(m, start, count)
			if got := g.Scan(m, start); got != len(want) {
				t.Fatalf("trial %d: partition %d walked %d rows, want %d", trial, i, got, len(want))
			}
			concat = append(concat, want...)
		}
		sort.Slice(concat, func(i, j int) bool { return concat[i].Key < concat[j].Key })
		if len(concat) > count {
			concat = concat[:count]
		}
		got := drain(g)
		if len(got) != len(concat) {
			t.Fatalf("trial %d: gathered %d rows, want %d", trial, len(got), len(concat))
		}
		for i := range got {
			if got[i].Key != concat[i].Key || field0(got[i]) != field0(concat[i]) {
				t.Fatalf("trial %d: row %d = %q/%q, want %q/%q", trial, i,
					got[i].Key, field0(got[i]), concat[i].Key, field0(concat[i]))
			}
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	m := New(1)
	m.Put("key", [][]byte{[]byte("12345"), []byte("67890")}) // 3+5+5 = 13
	if m.Bytes() != 13 {
		t.Fatalf("Bytes = %d, want 13", m.Bytes())
	}
	m.Put("key", [][]byte{[]byte("1")}) // 3+1 = 4
	if m.Bytes() != 4 {
		t.Fatalf("Bytes after replace = %d, want 4", m.Bytes())
	}
}

func TestAllReturnsSorted(t *testing.T) {
	m := New(42)
	keys := []string{"q", "a", "z", "m", "b"}
	for _, k := range keys {
		m.Put(k, f1("v"))
	}
	all := m.All()
	if len(all) != len(keys) {
		t.Fatalf("All returned %d entries, want %d", len(all), len(keys))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
		t.Fatalf("All not sorted: %v", all)
	}
}

func TestIterEarlyStop(t *testing.T) {
	m := New(1)
	for i := 0; i < 10; i++ {
		m.Put(fmt.Sprintf("k%d", i), f1("v"))
	}
	n := 0
	m.Iter(func(Entry) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("iter visited %d entries, want 3", n)
	}
}

// Property: the memtable agrees with a reference map and All() is sorted.
func TestPropertyAgainstMap(t *testing.T) {
	f := func(ops []struct {
		K string
		V string
	}) bool {
		m := New(99)
		ref := map[string]string{}
		for _, op := range ops {
			m.Put(op.K, f1(op.V))
			ref[op.K] = op.V
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Get(k)
			if !ok || string(got.Field(0)) != v {
				return false
			}
		}
		all := m.All()
		return sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a one-partition gather from start bounded by n equals the
// reference-sorted slice filtered to keys >= start, truncated to n.
func TestPropertyScanMatchesSortedRef(t *testing.T) {
	f := func(keys []string, start string, n8 uint8) bool {
		n := int(n8%16) + 1
		m := New(7)
		ref := map[string]bool{}
		for _, k := range keys {
			m.Put(k, f1("v"))
			ref[k] = true
		}
		var want []string
		for k := range ref {
			if k >= start {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		if len(want) > n {
			want = want[:n]
		}
		got := scan(m, start, n)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Key != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPutAllocBudget pins the arena contract: a steady-state insert
// performs no per-operation heap allocation — only the amortized chunk
// allocations, well under 0.1 allocs/op.
func TestPutAllocBudget(t *testing.T) {
	const n = 4096
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%013d", i)
	}
	fields := [][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	}
	m := New(1)
	i := 0
	avg := testing.AllocsPerRun(n-1, func() {
		m.Put(keys[i], fields)
		i++
	})
	if avg > 0.1 {
		t.Fatalf("Put allocates %.3f allocs/op in steady state, want amortized ~0", avg)
	}
}

// TestReplaceAllocBudget pins that a same-shape replace copies in place:
// zero allocations, not even amortized arena growth.
func TestReplaceAllocBudget(t *testing.T) {
	m := New(1)
	m.Put("key0000000000001", [][]byte{[]byte("0123456789")})
	repl := [][]byte{[]byte("9876543210")}
	avg := testing.AllocsPerRun(1000, func() {
		m.Put("key0000000000001", repl)
	})
	if avg != 0 {
		t.Fatalf("same-shape replace allocates %.3f allocs/op, want 0", avg)
	}
	if m.Len() != 1 || m.Bytes() != 26 {
		t.Fatalf("after replaces: Len=%d Bytes=%d, want 1/26", m.Len(), m.Bytes())
	}
}

// TestPutCopiesFields pins the copy-on-ingest contract: the memtable owns
// its payload bytes, so mutating (or reusing) the caller's buffer after
// Put must not change stored values.
func TestPutCopiesFields(t *testing.T) {
	m := New(1)
	buf := [][]byte{[]byte("aaaa"), []byte("bbbb")}
	m.Put("k1", buf)
	copy(buf[0], "XXXX")
	copy(buf[1], "YYYY")
	m.Put("k2", buf)
	v1, _ := m.Get("k1")
	v2, _ := m.Get("k2")
	if string(v1.Field(0)) != "aaaa" || string(v1.Field(1)) != "bbbb" {
		t.Fatalf("k1 = %q/%q: stored value aliased the caller's buffer", v1.Field(0), v1.Field(1))
	}
	if string(v2.Field(0)) != "XXXX" || string(v2.Field(1)) != "YYYY" {
		t.Fatalf("k2 = %q/%q, want the mutated buffer's contents", v2.Field(0), v2.Field(1))
	}
}

// TestReplaceDifferentShape covers the slab-recarve branch: replacing
// with a different field count or size must not corrupt earlier values.
func TestReplaceDifferentShape(t *testing.T) {
	m := New(1)
	m.Put("a", [][]byte{[]byte("0123456789")})
	m.Put("b", [][]byte{[]byte("0123456789")})
	m.Put("a", [][]byte{[]byte("xy"), []byte("longer-than-before")})
	va, _ := m.Get("a")
	vb, _ := m.Get("b")
	if va.Len() != 2 || string(va.Field(0)) != "xy" || string(va.Field(1)) != "longer-than-before" {
		t.Fatalf("a = %q/%q", va.Field(0), va.Field(1))
	}
	if vb.Len() != 1 || string(vb.Field(0)) != "0123456789" {
		t.Fatalf("b = %q: neighbor corrupted by reshaped replace", vb.Field(0))
	}
	if m.Bytes() != 1+20+1+10 {
		t.Fatalf("Bytes = %d, want 32", m.Bytes())
	}
}

// refTable is the op-for-op reference model for TestSlabLayoutEquivalence:
// a map plus payload accounting with the PR-4 memtable's exact semantics.
type refTable struct {
	vals  map[string][]string
	bytes int64
}

func (r *refTable) put(key string, fields [][]byte) {
	var n int64
	fs := make([]string, len(fields))
	for i, f := range fields {
		fs[i] = string(f)
		n += int64(len(f))
	}
	if old, ok := r.vals[key]; ok {
		for _, f := range old {
			r.bytes -= int64(len(f))
		}
	} else {
		r.bytes += int64(len(key))
	}
	r.vals[key] = fs
	r.bytes += n
}

func (r *refTable) sortedKeys() []string {
	ks := make([]string, 0, len(r.vals))
	for k := range r.vals {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestSlabLayoutEquivalence pins the slab-backed memtable against the
// PR-4 layout's observable behavior op-for-op: after every operation of
// a seeded random workload (inserts, same-shape replaces, reshaping
// replaces, point gets, scans), Len/Bytes/Get/Gather/All/SeekIter must
// agree exactly with a reference model implementing the documented PR-4
// semantics. This is the contract that makes the layout swap host-side
// only: Bytes() drives flush timing, All() order drives sstable
// contents, and both must be bit-for-bit what the pointer-based
// implementation produced.
func TestSlabLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	m := New(5)
	ref := &refTable{vals: map[string][]string{}}
	randFields := func() [][]byte {
		n := 1 + rng.Intn(4)
		fs := make([][]byte, n)
		for i := range fs {
			b := make([]byte, rng.Intn(20))
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			fs[i] = b
		}
		return fs
	}
	checkEntry := func(op int, e Entry, key string) {
		want := ref.vals[key]
		if e.Fields.Len() != len(want) {
			t.Fatalf("op %d: entry %q has %d fields, want %d", op, key, e.Fields.Len(), len(want))
		}
		for i, w := range want {
			if string(e.Fields.Field(i)) != w {
				t.Fatalf("op %d: entry %q field %d = %q, want %q", op, key, i, e.Fields.Field(i), w)
			}
		}
	}
	for op := 0; op < 3000; op++ {
		key := fmt.Sprintf("user%09d", rng.Intn(400))
		switch rng.Intn(4) {
		case 0, 1: // insert or replace
			f := randFields()
			m.Put(key, f)
			ref.put(key, f)
		case 2: // point get
			v, ok := m.Get(key)
			_, wok := ref.vals[key]
			if ok != wok {
				t.Fatalf("op %d: Get(%q) present=%v, want %v", op, key, ok, wok)
			}
			if ok {
				checkEntry(op, Entry{Key: key, Fields: v}, key)
			}
		case 3: // scan from a random start
			count := 1 + rng.Intn(8)
			got := scan(m, key, count)
			var want []string
			for _, k := range ref.sortedKeys() {
				if k >= key && len(want) < count {
					want = append(want, k)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: Scan(%q,%d) len %d, want %d", op, key, count, len(got), len(want))
			}
			for i, e := range got {
				if e.Key != want[i] {
					t.Fatalf("op %d: Scan[%d] = %q, want %q", op, i, e.Key, want[i])
				}
				checkEntry(op, e, e.Key)
			}
		}
		if m.Len() != len(ref.vals) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref.vals))
		}
		if m.Bytes() != ref.bytes {
			t.Fatalf("op %d: Bytes = %d, want %d", op, m.Bytes(), ref.bytes)
		}
	}
	// Full-table sweep: All and SeekIter("") agree with the model.
	keys := ref.sortedKeys()
	all := m.All()
	if len(all) != len(keys) {
		t.Fatalf("All len = %d, want %d", len(all), len(keys))
	}
	it := m.SeekIter("")
	for i, k := range keys {
		if all[i].Key != k {
			t.Fatalf("All[%d] = %q, want %q", i, all[i].Key, k)
		}
		checkEntry(-1, all[i], k)
		if !it.Valid() || it.Entry().Key != k {
			t.Fatalf("iterator at %d: valid=%v, want key %q", i, it.Valid(), k)
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("iterator valid past the last key")
	}
}

func TestFreezeHandsOffEntries(t *testing.T) {
	m := New(3)
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%03d", i), f1(fmt.Sprintf("v%d", i)))
	}
	var keys []string
	data, shapes := m.Freeze(func(e FlushEntry) {
		keys = append(keys, data0(m, e))
	})
	if len(keys) != 100 || !sort.StringsAreSorted(keys) {
		t.Fatalf("Freeze yielded %d keys (sorted=%v)", len(keys), sort.StringsAreSorted(keys))
	}
	// The handed-off slab resolves the same payload the memtable held.
	v, _ := m.Get("k042")
	got := data.View(0, 1) // probe: slab is alive and indexable
	_ = got
	if string(v.Field(0)) != "v42" {
		t.Fatalf("frozen memtable Get = %q", v.Field(0))
	}
	if shapes.Len() == 0 {
		t.Fatal("shape table handed off empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put after Freeze did not panic")
		}
	}()
	m.Put("new", f1("v"))
}

// data0 resolves a FlushEntry's key through the memtable's own slab.
func data0(m *Memtable, e FlushEntry) string {
	return m.data.String(e.Ref, e.KeyLen)
}

// BenchmarkMemtablePut measures the steady-state insert path with keys
// built outside the timed loop, so the reported allocs/op are the
// memtable's own (arena nodes, field copies), not the caller's key
// construction.
func BenchmarkMemtablePut(b *testing.B) {
	const pool = 1 << 20
	keys := make([]string, pool)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%013d", i)
	}
	fields := [][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	}
	m := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(keys[i%pool], fields)
	}
}

// BenchmarkMemtableGet measures the point-read path — the skip-list
// search that dominates figure-run host CPU — over a loaded table with
// keys prebuilt outside the loop.
func BenchmarkMemtableGet(b *testing.B) {
	const n = 100000
	keys := make([]string, n)
	m := New(1)
	fields := [][]byte{
		[]byte("0123456780"), []byte("0123456781"), []byte("0123456782"),
		[]byte("0123456783"), []byte("0123456784"),
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("key%09d", i*7919%n)
		m.Put(keys[i], fields)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i%n])
	}
}

// BenchmarkMemtableScan measures the iterator walk over the bottom
// level: one seek plus a fixed-length cursor advance per iteration, the
// shape of the LSM scan path's memtable source.
func BenchmarkMemtableScan(b *testing.B) {
	const n = 100000
	keys := make([]string, n)
	m := New(1)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%09d", i*7919%n)
		m.Put(keys[i], [][]byte{[]byte("0123456789")})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := m.SeekIter(keys[i%n])
		for j := 0; j < 100 && it.Valid(); j++ {
			e := it.Entry()
			_ = e.Fields
			it.Next()
		}
	}
}
