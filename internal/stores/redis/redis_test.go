package redis

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/store"
)

func deploy(nodes int, opts Options) (*sim.Engine, *Store) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(nodes).Scale(0.01))
	return e, New(c, opts)
}

func TestDefaultsFilled(t *testing.T) {
	var o Options
	o.defaults()
	if o.ReadCPU == 0 || o.WriteCPU == 0 || o.PerRecordOverhead == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}

func TestShardingRoutesConsistently(t *testing.T) {
	_, s := deploy(4, Options{})
	for i := int64(0); i < 50; i++ {
		k := store.Key(i)
		if s.inst(k) != s.inst(k) {
			t.Fatal("same key routed differently")
		}
	}
}

// TestMergeEntriesOrdersAndBounds pins the client-side merge the scan
// runs over its shards' answers: key-ordered across shards and bounded by
// count.
func TestMergeEntriesOrdersAndBounds(t *testing.T) {
	shards := []*memtable.Memtable{memtable.New(1), memtable.New(2), memtable.New(3)}
	for i, k := range []string{"c", "a", "e", "b", "d"} {
		shards[i%len(shards)].Put(k, nil)
	}
	merge := func(count int) []string {
		g := memtable.NewGather(count)
		for _, m := range shards {
			g.Scan(m, "")
		}
		var keys []string
		for g.Next() {
			keys = append(keys, g.Key())
		}
		return keys
	}
	out := merge(3)
	if len(out) != 3 || out[0] != "a" || out[1] != "b" || out[2] != "c" {
		t.Fatalf("merge = %v", out)
	}
	if got := merge(0); len(got) != 0 {
		t.Fatalf("merge bounded to nothing = %v", got)
	}
	if got := merge(100); len(got) != 5 {
		t.Fatalf("merge larger than input = %d entries", len(got))
	}
}

func TestSingleThreadedLoopSerializes(t *testing.T) {
	e, s := deploy(1, Options{})
	s.Load(store.Key(1), store.MakeFields(1))
	var last sim.Time
	const clients = 16
	for i := 0; i < clients; i++ {
		e.Go("c", func(p *sim.Proc) {
			s.Read(p, store.Key(1))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run(0)
	// 16 concurrent reads through one event loop cannot finish in one
	// service time; they serialize.
	var o Options
	o.defaults()
	if last < sim.Time(clients/2)*o.ReadCPU {
		t.Fatalf("16 reads finished at %v, too parallel for a single event loop", last)
	}
}

func TestMemoryAccountingAndSwap(t *testing.T) {
	e := sim.NewEngine(1)
	spec := cluster.ClusterM(1)
	spec.Node.RAMBytes = 1 << 20 // 1 MiB node: overflow fast
	c := cluster.New(e, spec)
	s := New(c, Options{})
	for i := int64(0); i < 2000; i++ { // 2000 x ~1.3KB > 1MiB
		s.Load(store.Key(i), store.MakeFields(i))
	}
	if s.SwappingNodes() != 1 {
		t.Fatalf("swapping nodes = %d, want 1", s.SwappingNodes())
	}
	// Reads on the swapping instance should sometimes pay disk time.
	var elapsed sim.Time
	e.Go("r", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 50; i++ {
			s.Read(p, store.Key(i*13))
		}
		elapsed = p.Now() - start
	})
	e.Run(0)
	if elapsed < 10*sim.Millisecond {
		t.Fatalf("reads on swapping node took %v, expected swap-in seeks", elapsed)
	}
}

func TestBalancedOptionUsesModSharding(t *testing.T) {
	_, s := deploy(8, Options{Balanced: true})
	for i := int64(0); i < 80000; i++ {
		s.Load(store.Key(i), store.MakeFields(i))
	}
	if lf := s.HottestLoadFactor(); lf > 1.05 {
		t.Fatalf("balanced load factor %.3f, want <= 1.05", lf)
	}
}

func TestJedisDefaultImbalanced(t *testing.T) {
	_, s := deploy(12, Options{})
	for i := int64(0); i < 120000; i++ {
		s.Load(store.Key(i), store.MakeFields(i))
	}
	if lf := s.HottestLoadFactor(); lf < 1.1 {
		t.Fatalf("jedis load factor %.3f, want visible imbalance (>1.1)", lf)
	}
}

func TestScanConsultsAllShards(t *testing.T) {
	e, s := deploy(3, Options{})
	for i := int64(0); i < 300; i++ {
		s.Load(store.Key(i), store.MakeFields(i))
	}
	e.Go("r", func(p *sim.Proc) {
		recs, err := store.ScanAll(p, s, store.Key(0), 25)
		if err != nil || len(recs) != 25 {
			t.Errorf("scan = %d records, err %v", len(recs), err)
			return
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Key <= recs[i-1].Key {
				t.Errorf("scan unordered at %d: %s <= %s", i, recs[i].Key, recs[i-1].Key)
			}
		}
	})
	e.Run(0)
}

func TestHottestLoadFactorEmpty(t *testing.T) {
	_, s := deploy(2, Options{})
	if s.HottestLoadFactor() != 0 {
		t.Fatal("empty store should report 0 load factor")
	}
}

func TestUpdateDoesNotGrowMemory(t *testing.T) {
	_, s := deploy(1, Options{})
	e := sim.NewEngine(2)
	c := cluster.New(e, cluster.ClusterM(1).Scale(0.01))
	s = New(c, Options{})
	e.Go("w", func(p *sim.Proc) {
		s.Insert(p, "k", store.MakeFields(1))
		before := s.insts[0].resident
		for i := 0; i < 10; i++ {
			s.Update(p, "k", store.MakeFields(int64(i)))
		}
		if s.insts[0].resident != before {
			t.Errorf("updates grew resident memory %d -> %d", before, s.insts[0].resident)
		}
	})
	e.Run(0)
}
