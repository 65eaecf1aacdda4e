package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/ycsb"
)

func loadedDeployment(t *testing.T, sys harness.System) *harness.Deployment {
	t.Helper()
	dep, err := harness.Deploy(7, sys, cluster.ClusterM(2), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if err := ycsb.Load(dep.Store, 2_000); err != nil {
		t.Fatal(err)
	}
	return dep
}

// drive runs a fixed read/insert/scan sequence against s from one Proc and
// returns the scanned keys and the virtual time it ended at.
func drive(e *sim.Engine, s store.Store) ([]string, sim.Time, error) {
	var keys []string
	var err error
	e.Go("client", func(p *sim.Proc) {
		for i := int64(0); i < 20 && err == nil; i++ {
			if _, err = s.Read(p, store.Key(i)); err != nil {
				return
			}
			if err = s.Insert(p, store.Key(5_000+i), store.MakeFields(5_000+i)); err != nil {
				return
			}
			if !s.Caps().Scans {
				continue
			}
			var cur store.Cursor
			if cur, err = s.Scan(p, store.Key(i), 10); err != nil {
				return
			}
			for cur.Next() {
				keys = append(keys, strings.Clone(cur.Key()))
			}
			err = cur.Close()
		}
	})
	e.Run(0)
	return keys, e.Now(), err
}

// TestWrapForwardsCapabilities checks, on all six systems, that the traced
// store answers every optional capability probe exactly as the store it
// wraps and leaves the simulation unchanged.
func TestWrapForwardsCapabilities(t *testing.T) {
	for _, sys := range harness.AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			plain, traced := loadedDeployment(t, sys), loadedDeployment(t, sys)
			var ctr storeCounters
			w := wrap(traced.Store, &ctr)

			if got, want := store.CopiesOnIngest(w), store.CopiesOnIngest(plain.Store); got != want {
				t.Errorf("CopiesOnIngest = %v through the wrapper, %v without", got, want)
			}
			if w.Name() != plain.Store.Name() || w.Caps() != plain.Store.Caps() {
				t.Errorf("Name/Caps = %s/%+v through the wrapper, %s/%+v without",
					w.Name(), w.Caps(), plain.Store.Name(), plain.Store.Caps())
			}

			wantKeys, wantNow, err := drive(plain.Engine, plain.Store)
			if err != nil {
				t.Fatal(err)
			}
			gotKeys, gotNow, err := drive(traced.Engine, w)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotKeys, wantKeys) || gotNow != wantNow {
				t.Errorf("wrapped run scanned %d keys ending at %v, plain run %d keys at %v",
					len(gotKeys), gotNow, len(wantKeys), wantNow)
			}

			gotSlab, gotOK := store.SlabBytesOf(w)
			wantSlab, wantOK := store.SlabBytesOf(plain.Store)
			if gotSlab != wantSlab || gotOK != wantOK {
				t.Errorf("SlabBytesOf = %d,%v through the wrapper, %d,%v without", gotSlab, gotOK, wantSlab, wantOK)
			}
			gp, gr, gotOK := store.ScanStatsOf(w)
			wp, wr, wantOK := store.ScanStatsOf(plain.Store)
			if gp != wp || gr != wr || gotOK != wantOK {
				t.Errorf("ScanStatsOf = %d,%d,%v through the wrapper, %d,%d,%v without", gp, gr, gotOK, wp, wr, wantOK)
			}
			if w.DiskUsage() != plain.Store.DiskUsage() {
				t.Errorf("DiskUsage = %d through the wrapper, %d without", w.DiskUsage(), plain.Store.DiskUsage())
			}

			wantScans := int64(0)
			if plain.Store.Caps().Scans {
				wantScans = 20
			}
			if ctr.reads != 20 || ctr.inserts != 20 || ctr.scans != wantScans || ctr.rows != int64(len(gotKeys)) {
				t.Errorf("counted reads=%d inserts=%d scans=%d rows=%d, want 20, 20, %d, %d",
					ctr.reads, ctr.inserts, ctr.scans, ctr.rows, wantScans, len(gotKeys))
			}
		})
	}
}

// TestTracedPassMatchesRunner pins the traced pass to Runner.run: on a
// one-node sweep of every workload both produce the same model digest.
func TestTracedPassMatchesRunner(t *testing.T) {
	cfg := config(3)
	cfg.NodeCounts = []int{1}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			plain, err := untracedPass(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := tracedPass(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := digest(tr.results), digest(plain.results); got != want {
				t.Errorf("traced digest %s, runner digest %s", got, want)
			}
		})
	}
}
