package ycsb

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/store"
)

// fakeStore is a fixed-latency in-memory store for framework tests. Like
// every store, it copies key and field bytes before keeping them, since
// the runner reuses one key buffer and one fields buffer per client.
type fakeStore struct {
	readLat, writeLat, scanLat sim.Time
	data                       map[string]store.Fields
	reads, writes, scans       int
}

func newFake(r, w, s sim.Time) *fakeStore {
	return &fakeStore{readLat: r, writeLat: w, scanLat: s, data: map[string]store.Fields{}}
}

func (f *fakeStore) Name() string     { return "fake" }
func (f *fakeStore) Caps() store.Caps { return store.Caps{Scans: true} }
func (f *fakeStore) Insert(p *sim.Proc, key string, fl store.Fields) error {
	p.Sleep(f.writeLat)
	f.data[strings.Clone(key)] = fl.Clone()
	f.writes++
	return nil
}
func (f *fakeStore) Update(p *sim.Proc, key string, fl store.Fields) error {
	return f.Insert(p, key, fl)
}
func (f *fakeStore) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	p.Sleep(f.readLat)
	f.reads++
	if v, ok := f.data[key]; ok {
		return store.ViewFields(v), nil
	}
	return store.FieldsView{}, store.ErrNotFound
}
func (f *fakeStore) Scan(p *sim.Proc, start string, count int) (store.Cursor, error) {
	p.Sleep(f.scanLat)
	f.scans++
	return store.NewSliceCursor(nil), nil
}
func (f *fakeStore) Load(key string, fl store.Fields) error {
	f.data[strings.Clone(key)] = fl.Clone()
	return nil
}
func (f *fakeStore) DiskUsage() int64 { return 0 }

func TestWorkloadPresetsValid(t *testing.T) {
	for _, w := range Workloads {
		if err := w.Validate(); err != nil {
			t.Errorf("workload %s invalid: %v", w.Name, err)
		}
	}
}

func TestTable1Proportions(t *testing.T) {
	cases := []struct {
		w                  Workload
		read, scan, insert float64
	}{
		{WorkloadR, 0.95, 0, 0.05},
		{WorkloadRW, 0.50, 0, 0.50},
		{WorkloadW, 0.01, 0, 0.99},
		{WorkloadRS, 0.47, 0.47, 0.06},
		{WorkloadRSW, 0.25, 0.25, 0.50},
	}
	for _, c := range cases {
		if c.w.ReadProp != c.read || c.w.ScanProp != c.scan || c.w.InsertProp != c.insert {
			t.Errorf("workload %s: got %f/%f/%f, want %f/%f/%f", c.w.Name,
				c.w.ReadProp, c.w.ScanProp, c.w.InsertProp, c.read, c.scan, c.insert)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := WorkloadByName("RSW")
	if err != nil || w.Name != "RSW" {
		t.Fatalf("WorkloadByName(RSW) = %v, %v", w, err)
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestValidateRejectsBadMix(t *testing.T) {
	bad := Workload{Name: "bad", ReadProp: 0.5, InsertProp: 0.2}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted proportions summing to 0.7")
	}
	noLen := Workload{Name: "noscanlen", ReadProp: 0.5, ScanProp: 0.5}
	if err := noLen.Validate(); err == nil {
		t.Fatal("accepted scans without scan length")
	}
	negProp := Workload{Name: "neg", ReadProp: 1.5, InsertProp: -0.5}
	if err := negProp.Validate(); err == nil {
		t.Fatal("accepted proportions outside [0,1]")
	}
	negField := Workload{Name: "negfield", ReadProp: 1, FieldBytes: -1}
	if err := negField.Validate(); err == nil {
		t.Fatal("accepted negative field size")
	}
	updates := Workload{Name: "upd", ReadProp: 0.5, UpdateProp: 0.5}
	if err := updates.Validate(); err != nil {
		t.Fatalf("rejected a valid update mix: %v", err)
	}
	if !updates.HasUpdates() || WorkloadR.HasUpdates() {
		t.Fatal("HasUpdates wrong")
	}
}

func TestWorkloadFieldSizeAndPresetIdentity(t *testing.T) {
	if WorkloadR.FieldSize() != 10 {
		t.Fatalf("default field size = %d, want 10 (75-byte records)", WorkloadR.FieldSize())
	}
	sized := WorkloadR
	sized.FieldBytes = 200
	if sized.FieldSize() != 200 {
		t.Fatalf("custom field size = %d, want 200", sized.FieldSize())
	}
	if !WorkloadR.IsPreset() || sized.IsPreset() {
		t.Fatal("IsPreset must be exact parameter identity, not just the name")
	}
}

func TestClosedLoopThroughputMatchesLittlesLaw(t *testing.T) {
	// 8 clients, 1ms per op -> 8000 ops/s.
	e := sim.NewEngine(1)
	f := newFake(sim.Millisecond, sim.Millisecond, sim.Millisecond)
	if err := Load(f, 1000); err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, RunConfig{
		Store: f, Workload: WorkloadR, Clients: 8,
		InitialRecords: 1000, Warmup: 100 * sim.Millisecond, Measure: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tput := res.Throughput()
	if tput < 7500 || tput > 8500 {
		t.Fatalf("throughput = %f, want ~8000 (Little's law)", tput)
	}
	if got := res.MeanLatency(0); got != sim.Millisecond {
		t.Fatalf("read latency = %v, want exactly 1ms", got)
	}
}

func TestTargetThrottleBoundsThroughput(t *testing.T) {
	e := sim.NewEngine(1)
	f := newFake(sim.Millisecond, sim.Millisecond, sim.Millisecond)
	Load(f, 1000)
	res, err := Run(e, RunConfig{
		Store: f, Workload: WorkloadR, Clients: 8, TargetOpsPerSec: 2000,
		InitialRecords: 1000, Warmup: 200 * sim.Millisecond, Measure: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tput := res.Throughput()
	if tput < 1800 || tput > 2200 {
		t.Fatalf("throttled throughput = %f, want ~2000", tput)
	}
}

func TestMixProportionsObserved(t *testing.T) {
	e := sim.NewEngine(2)
	f := newFake(100*sim.Microsecond, 100*sim.Microsecond, 100*sim.Microsecond)
	Load(f, 1000)
	res, err := Run(e, RunConfig{
		Store: f, Workload: WorkloadRSW, Clients: 16,
		InitialRecords: 1000, Warmup: 100 * sim.Millisecond, Measure: 2 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := float64(res.Ops())
	readFrac := float64(res.Hist(0).N()) / total
	scanFrac := float64(res.Hist(3).N()) / total
	if readFrac < 0.22 || readFrac > 0.28 {
		t.Fatalf("read fraction = %f, want ~0.25", readFrac)
	}
	if scanFrac < 0.22 || scanFrac > 0.28 {
		t.Fatalf("scan fraction = %f, want ~0.25", scanFrac)
	}
}

func TestInsertsExtendKeyspace(t *testing.T) {
	e := sim.NewEngine(3)
	f := newFake(10*sim.Microsecond, 10*sim.Microsecond, 10*sim.Microsecond)
	Load(f, 100)
	res, err := Run(e, RunConfig{
		Store: f, Workload: WorkloadW, Clients: 4,
		InitialRecords: 100, Warmup: 0, Measure: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.writes == 0 {
		t.Fatal("no inserts performed")
	}
	if len(f.data) <= 100 {
		t.Fatalf("keyspace did not grow: %d records", len(f.data))
	}
	if res.Errors() > res.Ops()/10 {
		t.Fatalf("too many errors: %d of %d", res.Errors(), res.Ops())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, int64) {
		e := sim.NewEngine(77)
		f := newFake(sim.Millisecond, 500*sim.Microsecond, 2*sim.Millisecond)
		Load(f, 500)
		res, err := Run(e, RunConfig{
			Store: f, Workload: WorkloadRW, Clients: 8,
			InitialRecords: 500, Warmup: 50 * sim.Millisecond, Measure: 500 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput(), res.Ops()
	}
	t1, o1 := run()
	t2, o2 := run()
	if t1 != t2 || o1 != o2 {
		t.Fatalf("same-seed runs differ: %f/%d vs %f/%d", t1, o1, t2, o2)
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	e := sim.NewEngine(1)
	f := newFake(1, 1, 1)
	if _, err := Run(e, RunConfig{Store: f, Workload: WorkloadR, Clients: 0, Measure: 1}); err == nil {
		t.Fatal("accepted zero clients")
	}
	if _, err := Run(e, RunConfig{Store: f, Workload: WorkloadR, Clients: 1, Measure: 0}); err == nil {
		t.Fatal("accepted zero measurement window")
	}
	bad := Workload{Name: "bad", ReadProp: 0.3}
	if _, err := Run(e, RunConfig{Store: f, Workload: bad, Clients: 1, Measure: 1}); err == nil {
		t.Fatal("accepted invalid workload")
	}
}

// Property: every chooser returns indices within [0, n).
func TestPropertyChooserInRange(t *testing.T) {
	f := func(n64 uint32, u1f, u2f uint16) bool {
		n := int64(n64%100000) + 1
		u1 := float64(u1f) / 65536.0
		u2 := float64(u2f) / 65536.0
		for _, kind := range []ChooserKind{Uniform, Zipfian, Latest} {
			c := newChooser(kind)
			got := c.Choose(n, u1, u2)
			if got < 0 || got >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfianSkew(t *testing.T) {
	// Zipfian draws should concentrate: the most popular 10% of ranks get
	// well over 10% of accesses.
	c := newChooser(Zipfian)
	e := sim.NewEngine(5)
	rng := e.Rand()
	const n = 1000
	counts := map[int64]int{}
	for i := 0; i < 20000; i++ {
		counts[c.Choose(n, rng.Float64(), rng.Float64())]++
	}
	// Aggregate counts of keys; check max key gets > 2x fair share.
	maxC := 0
	for _, v := range counts {
		if v > maxC {
			maxC = v
		}
	}
	if float64(maxC) < 2*20000.0/n {
		t.Fatalf("zipfian max key count %d, want > 2x fair share %f", maxC, 20000.0/n)
	}
}

// TestReusedBuffersRetainExactRecords pins the key/fields buffer reuse:
// the runner hands every operation views of its per-client buffers, and
// every record the store keeps must hold exactly the bytes its record
// number implies (a stale or overwritten buffer view would leave another
// record's key or fields behind).
func TestReusedBuffersRetainExactRecords(t *testing.T) {
	const initial = 400
	s := newFake(sim.Millisecond, 500*sim.Microsecond, 2*sim.Millisecond)
	if err := Load(s, initial); err != nil {
		t.Fatal(err)
	}
	_, err := Run(sim.NewEngine(77), RunConfig{
		Store: s, Workload: WorkloadW, Clients: 8,
		InitialRecords: initial, Warmup: 50 * sim.Millisecond, Measure: 500 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Integrity sweep: map keys back to record numbers and verify payloads.
	// writes counts every insert/update including warmup and drain, so
	// initial+writes bounds the highest record number any key can carry.
	byKey := map[string]int64{}
	for id := int64(0); id < initial+int64(s.writes)+16; id++ {
		byKey[store.Key(id)] = id
	}
	if len(s.data) <= initial {
		t.Fatalf("write workload retained only %d records", len(s.data))
	}
	for key, fl := range s.data {
		id, ok := byKey[key]
		if !ok {
			t.Fatalf("retained key %q maps to no record number (aliased buffer?)", key)
		}
		want := store.MakeFields(id)
		for j := range want {
			if string(fl[j]) != string(want[j]) {
				t.Fatalf("record %d field %d = %q, want %q (aliased buffer?)", id, j, fl[j], want[j])
			}
		}
	}
}

// TestRunSteadyStateAllocs pins the zero-allocation operation loop: after
// warmup, inserts and updates reuse the per-client key and fields buffers.
func TestRunSteadyStateAllocs(t *testing.T) {
	var kb keyBuf
	var fbuf store.Fields
	avg := testing.AllocsPerRun(1000, func() {
		_ = kb.key(12345)
		fbuf = store.FillFields(fbuf, 12345, store.FieldBytes)
	})
	if avg != 0 {
		t.Fatalf("per-op key+fields build allocates %.3f allocs/op, want 0", avg)
	}
}

// TestKeyBufMatchesKey pins the zero-copy key view: same bytes as
// store.Key, and the view is invalidated (overwritten in place) by the
// next build — exactly why stores must copy key bytes on ingest.
func TestKeyBufMatchesKey(t *testing.T) {
	var kb keyBuf
	for _, id := range []int64{0, 5, 999_999_999} {
		if got := kb.key(id); got != store.Key(id) {
			t.Fatalf("keyBuf.key(%d) = %q, want %q", id, got, store.Key(id))
		}
	}
	first := kb.key(1)
	second := kb.key(2)
	if first != second {
		t.Fatal("old key view survived a rebuild; buffer is not being reused")
	}
}
