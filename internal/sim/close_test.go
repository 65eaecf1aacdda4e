package sim

import (
	"errors"
	"testing"
)

// TestCloseTearsDownEveryProc closes an engine whose processes are blocked
// every way a process can block: in Sleep, in Park, queued on a resource
// while a holder sleeps in Use, granted a unit but not yet resumed, and
// not yet started. Each must finish without running past its block, each
// Use must hand back its unit, each must report Killed, and the engine
// must be left empty.
func TestCloseTearsDownEveryProc(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	handoff := NewResource(e, "lock", 1)
	// The test holds the only unit of busy, so no Release ever reaches
	// its waiter: Close alone must take it off the queue.
	busy := NewResource(e, "nic", 1)
	busy.TryAcquire()
	ranPast := func(p *Proc) { t.Errorf("%s ran past its block after Close", p.Name()) }
	procs := []*Proc{
		e.Go("sleeper", func(p *Proc) { p.Sleep(Second); ranPast(p) }),
		e.Go("parker", func(p *Proc) { p.Park(); ranPast(p) }),
		e.Go("holder", func(p *Proc) { p.Use(r, Second); ranPast(p) }),
		e.GoAt(1, "queued", func(p *Proc) { p.Use(r, Second); ranPast(p) }),
		e.Go("stranded", func(p *Proc) { p.Use(busy, Second); ranPast(p) }),
		// granter releases handoff to grantee and stops the run before
		// grantee's wake is delivered, so grantee holds a unit it was
		// never resumed to see.
		e.Go("granter", func(p *Proc) {
			p.Use(handoff, 10)
			p.Engine().Stop()
			p.Park()
			ranPast(p)
		}),
		e.GoAt(1, "grantee", func(p *Proc) { p.Use(handoff, Second); ranPast(p) }),
		e.GoAt(Second, "unstarted", func(p *Proc) { ranPast(p) }),
	}
	e.Run(0)
	if e.Now() != 10 {
		t.Fatalf("run stopped at t=%d, want 10", e.Now())
	}
	if r.QueueLen() != 1 || busy.QueueLen() != 1 || handoff.InUse() != 1 || handoff.QueueLen() != 0 {
		t.Fatalf("setup: disk queue %d, nic queue %d, lock in use %d queue %d; want 1, 1, 1, 0",
			r.QueueLen(), busy.QueueLen(), handoff.InUse(), handoff.QueueLen())
	}

	e.Close()
	for _, p := range procs {
		if !p.Done() || !p.Killed() {
			t.Errorf("%s after Close: done %v, killed %v", p.Name(), p.Done(), p.Killed())
		}
	}
	for _, res := range []*Resource{r, handoff} {
		if res.InUse() != 0 || res.QueueLen() != 0 {
			t.Errorf("%s: %d units held, %d waiters after Close", res.Name(), res.InUse(), res.QueueLen())
		}
	}
	if busy.InUse() != 1 || busy.QueueLen() != 0 {
		t.Errorf("nic: %d units held, %d waiters after Close; want the test's 1, 0", busy.InUse(), busy.QueueLen())
	}
	if e.Procs() != 0 || e.Pending() != 0 {
		t.Fatalf("after Close: Procs() = %d, Pending() = %d, want 0, 0", e.Procs(), e.Pending())
	}
	e.Close() // a second Close has nothing left to do
	if e.Procs() != 0 || e.Pending() != 0 {
		t.Fatalf("after second Close: Procs() = %d, Pending() = %d", e.Procs(), e.Pending())
	}
}

// TestCloseUnwindsProcsSpawnedDuringTeardown checks that a process started
// by another process's defers while Close unwinds it is torn down too.
func TestCloseUnwindsProcsSpawnedDuringTeardown(t *testing.T) {
	e := NewEngine(1)
	var late *Proc
	e.Go("parent", func(p *Proc) {
		defer func() { late = e.Go("late", func(p *Proc) { t.Error("late proc ran") }) }()
		p.Park()
	})
	e.Run(0)
	e.Close()
	if late == nil || !late.Done() || e.Procs() != 0 || e.Pending() != 0 {
		t.Fatalf("late proc %v, Procs() = %d, Pending() = %d", late, e.Procs(), e.Pending())
	}
}

// TestProcPanicSurfacesFromRun pins that a panic in process code, other
// than a kill unwind, propagates out of Engine.Run to its caller with its
// original value, and leaves the engine closable.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	e := NewEngine(1)
	bystander := e.Go("bystander", func(p *Proc) { p.Park() })
	bad := e.Go("bad", func(p *Proc) {
		p.Sleep(5)
		panic(boom)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run(0)
		return nil
	}()
	if got != boom {
		t.Fatalf("Run panicked with %v, want %v", got, boom)
	}
	if e.Now() != 5 || !bad.Done() {
		t.Fatalf("panic at t=%d, bad done %v; want t=5, done", e.Now(), bad.Done())
	}
	e.Close()
	if !bystander.Done() || e.Procs() != 0 {
		t.Fatalf("after Close: bystander done %v, Procs() = %d", bystander.Done(), e.Procs())
	}
}
