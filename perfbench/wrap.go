package main

import (
	"time"

	"repro/internal/sim"
	"repro/internal/store"
)

// storeCounters are the traced pass's tallies at the store boundary,
// summed over every cell of a workload. Simulated processes run one at a
// time and hand control over through channels, so plain fields suffice.
type storeCounters struct {
	reads, inserts, updates, scans, errors int64
	loads                                  int64
	loadTime                               time.Duration // inside Store.Load only
	rows                                   int64         // cursor rows drained
	drainTime                              time.Duration // inside Cursor.Next only
	// windowRows counts rows of cursors opened inside [winFrom, winTo),
	// the measured window of the cell being run, so they compare with the
	// window's operation count.
	windowRows     int64
	winFrom, winTo sim.Time
}

func (c *storeCounters) fail(err error) {
	if err != nil {
		c.errors++
	}
}

// tracedStore counts and times calls into a deployed store from outside.
// Embedding the interface forwards Name, Caps and DiskUsage; the optional
// capabilities are forwarded explicitly (CopiesOnIngest here, SlabBytes
// and ScanStats by wrap), because the workload drivers and the harness
// probe for them by type assertion and would silently take another path
// without them.
type tracedStore struct {
	store.Store
	c *storeCounters
}

// CopiesOnIngest forwards the ingest contract: without it ycsb falls back
// to its allocating per-operation key and field path.
func (s *tracedStore) CopiesOnIngest() bool { return store.CopiesOnIngest(s.Store) }

func (s *tracedStore) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	s.c.reads++
	v, err := s.Store.Read(p, key)
	s.c.fail(err)
	return v, err
}

func (s *tracedStore) Insert(p *sim.Proc, key string, f store.Fields) error {
	s.c.inserts++
	err := s.Store.Insert(p, key, f)
	s.c.fail(err)
	return err
}

func (s *tracedStore) Update(p *sim.Proc, key string, f store.Fields) error {
	s.c.updates++
	err := s.Store.Update(p, key, f)
	s.c.fail(err)
	return err
}

func (s *tracedStore) Scan(p *sim.Proc, start string, count int) (store.Cursor, error) {
	s.c.scans++
	cur, err := s.Store.Scan(p, start, count)
	if err != nil {
		s.c.errors++
		return cur, err
	}
	now := p.Now()
	return &tracedCursor{Cursor: cur, c: s.c, inWindow: now >= s.c.winFrom && now < s.c.winTo}, nil
}

func (s *tracedStore) Load(key string, f store.Fields) error {
	t0 := time.Now()
	err := s.Store.Load(key, f)
	s.c.loadTime += time.Since(t0)
	s.c.loads++
	s.c.fail(err)
	return err
}

// tracedCursor times each Next: all virtual time was charged when the
// cursor opened, so the drain is host-only work.
type tracedCursor struct {
	store.Cursor
	c        *storeCounters
	inWindow bool
}

func (c *tracedCursor) Next() bool {
	t0 := time.Now()
	ok := c.Cursor.Next()
	c.c.drainTime += time.Since(t0)
	if ok {
		c.c.rows++
		if c.inWindow {
			c.c.windowRows++
		}
	}
	return ok
}

type slabFwd struct{ r store.SlabReporter }

func (f slabFwd) SlabBytes() int64 { return f.r.SlabBytes() }

type scanStatsFwd struct{ r store.ScanStatsReporter }

func (f scanStatsFwd) ScanStats() (positioned, pruned int64) { return f.r.ScanStats() }

// wrap returns s behind a tracedStore that implements exactly the optional
// reporting interfaces s implements, so store.SlabBytesOf and
// store.ScanStatsOf answer through the wrapper as they would without it.
func wrap(s store.Store, c *storeCounters) store.Store {
	t := &tracedStore{Store: s, c: c}
	slab, hasSlab := s.(store.SlabReporter)
	scan, hasScan := s.(store.ScanStatsReporter)
	switch {
	case hasSlab && hasScan:
		return struct {
			*tracedStore
			slabFwd
			scanStatsFwd
		}{t, slabFwd{slab}, scanStatsFwd{scan}}
	case hasSlab:
		return struct {
			*tracedStore
			slabFwd
		}{t, slabFwd{slab}}
	case hasScan:
		return struct {
			*tracedStore
			scanStatsFwd
		}{t, scanStatsFwd{scan}}
	}
	return t
}
