package sstable

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/memtable"
	"repro/internal/slab"
)

var ov = Overhead{PerEntry: 10, PerCell: 20}

func entry(k, v string) memtable.Entry {
	return memtable.Entry{Key: k, Fields: slab.View([][]byte{[]byte(v)})}
}

func TestBuildSortsAndGets(t *testing.T) {
	tb := Build(1, []memtable.Entry{entry("c", "3"), entry("a", "1"), entry("b", "2")}, ov, 0.01)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := tb.Get(k); !ok {
			t.Fatalf("Get(%q) missing", k)
		}
	}
	if _, ok := tb.Get("z"); ok {
		t.Fatal("found absent key")
	}
	min, max := tb.KeyRange()
	if min != "a" || max != "c" {
		t.Fatalf("range = [%s,%s], want [a,c]", min, max)
	}
}

func TestBuildDeduplicatesKeepingLast(t *testing.T) {
	tb := Build(1, []memtable.Entry{entry("k", "old"), entry("k", "new")}, ov, 0.01)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	v, _ := tb.Get("k")
	if string(v.Field(0)) != "new" {
		t.Fatalf("value = %s, want new (last write wins)", v.Field(0))
	}
}

func TestMayContainRespectsRange(t *testing.T) {
	tb := Build(1, []memtable.Entry{entry("m", "1"), entry("p", "2")}, ov, 0.01)
	if tb.MayContain("a") {
		t.Fatal("key below range should be excluded without a filter probe")
	}
	if tb.MayContain("z") {
		t.Fatal("key above range should be excluded")
	}
	if !tb.MayContain("m") || !tb.MayContain("p") {
		t.Fatal("present keys must pass the filter")
	}
}

func TestDiskBytesIncludesOverhead(t *testing.T) {
	// one entry: key "kk" (2) + perEntry 10 + 2 cells of 5 bytes + 2*20.
	e := memtable.Entry{Key: "kk", Fields: slab.View([][]byte{[]byte("12345"), []byte("67890")})}
	tb := Build(1, []memtable.Entry{e}, ov, 0.01)
	want := int64(2 + 10 + 5 + 20 + 5 + 20)
	if tb.DiskBytes != want {
		t.Fatalf("DiskBytes = %d, want %d", tb.DiskBytes, want)
	}
}

func TestScan(t *testing.T) {
	var es []memtable.Entry
	for i := 0; i < 20; i++ {
		es = append(es, entry(fmt.Sprintf("k%02d", i), "v"))
	}
	tb := Build(1, es, ov, 0.01)
	got := tb.Scan("k05", 3)
	if len(got) != 3 || got[0].Key != "k05" || got[2].Key != "k07" {
		t.Fatalf("scan = %v", got)
	}
	if got := tb.Scan("k19", 10); len(got) != 1 {
		t.Fatalf("tail scan length = %d, want 1", len(got))
	}
}

func TestMergeNewestGenerationWins(t *testing.T) {
	older := Build(1, []memtable.Entry{entry("k", "old"), entry("a", "1")}, ov, 0.01)
	newer := Build(2, []memtable.Entry{entry("k", "new"), entry("b", "2")}, ov, 0.01)
	// Pass in arbitrary order; generation decides.
	m := Merge([]*Table{newer, older}, ov, 0.01)
	if m.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3", m.Len())
	}
	v, _ := m.Get("k")
	if string(v.Field(0)) != "new" {
		t.Fatalf("merged value = %s, want new", v.Field(0))
	}
	if m.Gen != 2 {
		t.Fatalf("merged gen = %d, want 2", m.Gen)
	}
}

func TestMergeReducesDiskBytesOnOverlap(t *testing.T) {
	a := Build(1, []memtable.Entry{entry("k", "1")}, ov, 0.01)
	b := Build(2, []memtable.Entry{entry("k", "2")}, ov, 0.01)
	m := Merge([]*Table{a, b}, ov, 0.01)
	if m.DiskBytes >= a.DiskBytes+b.DiskBytes {
		t.Fatalf("merge of duplicates did not reclaim space: %d >= %d", m.DiskBytes, a.DiskBytes+b.DiskBytes)
	}
}

func TestEmptyTable(t *testing.T) {
	tb := Build(1, nil, ov, 0.01)
	if tb.Len() != 0 || tb.MayContain("x") {
		t.Fatal("empty table misbehaves")
	}
	if got := tb.Scan("", 10); len(got) != 0 {
		t.Fatal("scan of empty table returned entries")
	}
}

// Property: merging two tables yields exactly the union of keys, with values
// from the newer generation on conflicts.
func TestPropertyMergeUnion(t *testing.T) {
	f := func(aKeys, bKeys []uint8) bool {
		var aes, bes []memtable.Entry
		for _, k := range aKeys {
			aes = append(aes, entry(fmt.Sprintf("k%03d", k), "a"))
		}
		for _, k := range bKeys {
			bes = append(bes, entry(fmt.Sprintf("k%03d", k), "b"))
		}
		ta := Build(1, aes, ov, 0.01)
		tb := Build(2, bes, ov, 0.01)
		m := Merge([]*Table{ta, tb}, ov, 0.01)
		want := map[string]string{}
		for _, k := range aKeys {
			want[fmt.Sprintf("k%03d", k)] = "a"
		}
		for _, k := range bKeys {
			want[fmt.Sprintf("k%03d", k)] = "b"
		}
		if m.Len() != len(want) {
			return false
		}
		for k, v := range want {
			got, ok := m.Get(k)
			if !ok || string(got.Field(0)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGet(b *testing.B) {
	var es []memtable.Entry
	for i := 0; i < 100000; i++ {
		es = append(es, entry(fmt.Sprintf("key%09d", i), "0123456789"))
	}
	tb := Build(1, es, ov, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(fmt.Sprintf("key%09d", i%100000))
	}
}

func TestSeekIterWalksFromStart(t *testing.T) {
	var es []memtable.Entry
	for i := 0; i < 20; i++ {
		es = append(es, entry(fmt.Sprintf("k%02d", i), "v"))
	}
	tb := Build(1, es, ov, 0.01)
	var keys []string
	for it := tb.SeekIter("k05"); it.Valid(); it.Next() {
		keys = append(keys, it.Entry().Key)
	}
	if len(keys) != 15 || keys[0] != "k05" || keys[14] != "k19" {
		t.Fatalf("SeekIter walked %v", keys)
	}
	if it := tb.SeekIter("k95"); it.Valid() {
		t.Fatal("iterator past maxKey is valid")
	}
}

func TestBuildSortedMatchesBuild(t *testing.T) {
	// Same logical input: BuildSorted gets it pre-sorted with adjacent
	// duplicates (later wins), Build gets it shuffled.
	sorted := []memtable.Entry{
		entry("a", "1"), entry("b", "old"), entry("b", "new"),
		entry("c", "3"), entry("d", "4"),
	}
	shuffled := []memtable.Entry{
		entry("d", "4"), entry("b", "old"), entry("a", "1"),
		entry("b", "new"), entry("c", "3"),
	}
	fast := BuildSorted(2, sorted, ov, 0.01)
	slow := Build(2, shuffled, ov, 0.01)
	if fast.Len() != slow.Len() {
		t.Fatalf("Len = %d, want %d", fast.Len(), slow.Len())
	}
	if fast.DiskBytes != slow.DiskBytes {
		t.Fatalf("DiskBytes = %d, want %d", fast.DiskBytes, slow.DiskBytes)
	}
	fmin, fmax := fast.KeyRange()
	smin, smax := slow.KeyRange()
	if fmin != smin || fmax != smax {
		t.Fatalf("range = [%s,%s], want [%s,%s]", fmin, fmax, smin, smax)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		fv, fok := fast.Get(k)
		sv, sok := slow.Get(k)
		if !fok || !sok || string(fv.Field(0)) != string(sv.Field(0)) {
			t.Fatalf("Get(%q): fast=%q,%v slow=%q,%v", k, fv.Field(0), fok, sv.Field(0), sok)
		}
	}
	if v, _ := fast.Get("b"); string(v.Field(0)) != "new" {
		t.Fatalf("duplicate key kept %q, want last write", v.Field(0))
	}
}

func TestBuildSortedNoDuplicatesIsIdentity(t *testing.T) {
	entries := []memtable.Entry{entry("a", "1"), entry("b", "2"), entry("c", "3")}
	tb := BuildSorted(1, entries, ov, 0.01)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	got := tb.Scan("", 3)
	for i, k := range []string{"a", "b", "c"} {
		if got[i].Key != k {
			t.Fatalf("entry %d = %q, want %q", i, got[i].Key, k)
		}
	}
}

// TestFromMemtableMatchesBuildSorted pins the zero-copy flush handoff:
// adopting a frozen memtable's slab must yield a table identical in
// every modeled dimension (count, DiskBytes, key range, filter size,
// contents) to copying the same entries through BuildSorted.
func TestFromMemtableMatchesBuildSorted(t *testing.T) {
	mkMem := func() *memtable.Memtable {
		m := memtable.New(9)
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("user%09d", i*37%500)
			m.Put(k, [][]byte{[]byte(fmt.Sprintf("f0-%05d", i)), []byte("f1")})
		}
		// Same-shape and reshaping replaces leave dead slab regions the
		// handoff must not account for.
		m.Put("user000000037", [][]byte{[]byte("f0-XXXXX"), []byte("f1")})
		m.Put("user000000074", [][]byte{[]byte("reshaped")})
		return m
	}
	ref := BuildSorted(3, mkMem().All(), ov, 0.01)
	got := FromMemtable(3, mkMem(), ov, 0.01)
	if got.Len() != ref.Len() || got.DiskBytes != ref.DiskBytes {
		t.Fatalf("Len/DiskBytes = %d/%d, want %d/%d", got.Len(), got.DiskBytes, ref.Len(), ref.DiskBytes)
	}
	gmin, gmax := got.KeyRange()
	rmin, rmax := ref.KeyRange()
	if gmin != rmin || gmax != rmax {
		t.Fatalf("range = [%s,%s], want [%s,%s]", gmin, gmax, rmin, rmax)
	}
	if got.FilterBytes() != ref.FilterBytes() {
		t.Fatalf("filter bytes = %d, want %d", got.FilterBytes(), ref.FilterBytes())
	}
	ri := ref.SeekIter("")
	for gi := got.SeekIter(""); gi.Valid(); gi.Next() {
		ge, re := gi.Entry(), ri.Entry()
		if ge.Key != re.Key || ge.Fields.Len() != re.Fields.Len() {
			t.Fatalf("entry %q vs %q", ge.Key, re.Key)
		}
		for i := 0; i < ge.Fields.Len(); i++ {
			if string(ge.Fields.Field(i)) != string(re.Fields.Field(i)) {
				t.Fatalf("key %q field %d = %q, want %q", ge.Key, i, ge.Fields.Field(i), re.Fields.Field(i))
			}
		}
		ri.Next()
	}
	if ri.Valid() {
		t.Fatal("reference has more entries than the handoff table")
	}
}

// BenchmarkMerge measures a compaction merge of four tables that each
// span the keyspace (hash-permuted keys, like load-phase flushes), per
// merged entry.
func BenchmarkMerge(b *testing.B) {
	const ways, per = 4, 25000
	var tables []*Table
	for w := 0; w < ways; w++ {
		mem := memtable.New(int64(w))
		for i := 0; i < per; i++ {
			mem.Put(fmt.Sprintf("user%021d", uint64(w*per+i)*0x9E3779B97F4A7C15), [][]byte{[]byte("0123456789")})
		}
		tables = append(tables, FromMemtable(w+1, mem, ov, 0.01))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := Merge(tables, ov, 0.01); m.Len() != ways*per {
			b.Fatalf("merged %d entries, want %d", m.Len(), ways*per)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ways*per), "ns/entry")
}
