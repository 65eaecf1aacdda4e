package sim

// Resource is a counted server pool with a FIFO wait queue: a CPU with k
// cores, a disk with one head, a NIC, a thread pool, a semaphore. Processes
// Acquire a unit, hold it while doing timed work, and Release it.
//
// Resources also keep utilization accounting (busy unit-time) so experiments
// can report how saturated a component was.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	queue    []*Proc

	// accounting
	busyUnits   Time // sum over units of time held
	lastChange  Time
	totalWaits  int64
	totalWaitNs Time
	maxQueueLen int
}

// NewResource creates a resource with the given number of units.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.queue) }

func (r *Resource) account() {
	now := r.eng.now
	r.busyUnits += Time(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Acquire obtains one unit, waiting in FIFO order if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.account()
		r.inUse++
		return
	}
	start := r.eng.now
	r.queue = append(r.queue, p)
	if len(r.queue) > r.maxQueueLen {
		r.maxQueueLen = len(r.queue)
	}
	if !p.yield(struct{}{}) {
		// Engine.Close stopped p while it waited: leave the queue, or hand
		// back the unit a Release already granted it.
		r.abandon(p)
		panic(procKilled{})
	}
	r.totalWaits++
	r.totalWaitNs += r.eng.now - start
}

// abandon undoes a wait that will never complete: p leaves the queue if it
// is still in it, else it was granted a unit, which is released.
func (r *Resource) abandon(p *Proc) {
	for i, q := range r.queue {
		if q == p {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
	r.Release()
}

// TryAcquire obtains a unit without waiting. It reports whether it succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.account()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit and hands it to the first live waiter, if any.
// Waiters whose process already finished (a kill-unwind can race with the
// grant) are dropped rather than granted, so no unit leaks.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	r.account()
	r.inUse--
	for len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		if next.dead {
			continue
		}
		r.account()
		r.inUse++
		next.Wake()
		return
	}
}

// Use acquires a unit, holds it for d, and releases it: the common pattern
// for "spend d of service time on this component". The release runs in a
// defer so a process killed mid-hold returns the unit as it unwinds.
func (p *Proc) Use(r *Resource, d Time) {
	r.Acquire(p)
	defer r.Release()
	p.Sleep(d)
}

// Utilization returns the average fraction of capacity that was busy between
// the start of the simulation and now.
func (r *Resource) Utilization() float64 {
	r.account()
	total := Time(r.capacity) * r.eng.now
	if total == 0 {
		return 0
	}
	return float64(r.busyUnits) / float64(total)
}

// AvgWait returns the mean time processes spent queued (zero if nothing
// ever waited).
func (r *Resource) AvgWait() Time {
	if r.totalWaits == 0 {
		return 0
	}
	return r.totalWaitNs / Time(r.totalWaits)
}

// MaxQueueLen returns the high-water mark of the wait queue.
func (r *Resource) MaxQueueLen() int { return r.maxQueueLen }
