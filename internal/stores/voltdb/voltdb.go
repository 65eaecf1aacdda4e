// Package voltdb models VoltDB 2.1 as benchmarked in the paper (§4.5): a
// shared-nothing, in-memory, partitioned relational engine with six
// single-threaded execution sites per host. Reads, writes and inserts are
// single-partition stored procedures; scans are multi-partition
// transactions.
//
// The paper's central VoltDB observation — excellent single-node throughput
// but *negative* scaling beyond one node with the synchronous YCSB client
// (§5.1, §6, footnote on Hugg's asynchronous benchmark) — is reproduced via
// the global transaction ordering path: with more than one host, every
// transaction passes through cluster-wide initiation whose per-transaction
// cost grows with the number of hosts, and a synchronous client cannot
// amortize that coordination across batched transactions the way VoltDB's
// asynchronous API does. Multi-partition transactions additionally fan out
// to one site on every host and block each of them.
package voltdb

import (
	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/base"
)

// Options tunes the model.
type Options struct {
	SitesPerHost int      // single-threaded partitions per host (paper: 6)
	ExecCPU      sim.Time // stored procedure execution cost on a site
	// OrderPerHost is the per-transaction global-ordering cost per host in
	// the cluster (zero cost on single-host deployments).
	OrderPerHost sim.Time
	// MPFanoutCPU is the per-site cost of a multi-partition transaction.
	MPFanoutCPU sim.Time
	ScanRowCPU  sim.Time
	// Async models VoltDB's asynchronous client (ablation): transaction
	// ordering is pipelined, so the ordering cost is not serialized through
	// a single global sequencer.
	Async bool
}

func (o *Options) defaults() {
	if o.SitesPerHost == 0 {
		o.SitesPerHost = 6
	}
	if o.ExecCPU == 0 {
		o.ExecCPU = 110 * sim.Microsecond
	}
	if o.OrderPerHost == 0 {
		o.OrderPerHost = 25 * sim.Microsecond
	}
	if o.MPFanoutCPU == 0 {
		o.MPFanoutCPU = 180 * sim.Microsecond
	}
	if o.ScanRowCPU == 0 {
		o.ScanRowCPU = 4 * sim.Microsecond
	}
}

// Store is a VoltDB deployment.
type Store struct {
	opts  Options
	clust *cluster.Cluster
	ring  *hashring.Mod // partition router over hosts*sites partitions
	hosts []*host
	// sequencer is the cluster-wide transaction initiation/ordering path.
	sequencer *sim.Resource
	// down marks killed hosts (fault injection). The paper ran without
	// k-safety, so a dead host's partitions are unavailable until restart.
	down      []bool
	downCount int
}

// host is one VoltDB server process.
type host struct {
	machine *cluster.Node
	sites   []*site
}

// site is a single-threaded partition executor with its partition's data.
type site struct {
	exec *sim.Resource // capacity 1: the site thread
	data *memtable.Memtable
}

// New deploys VoltDB across the cluster.
func New(c *cluster.Cluster, opts Options) *Store {
	opts.defaults()
	s := &Store{opts: opts, clust: c}
	s.ring = hashring.NewMod(len(c.Nodes) * opts.SitesPerHost)
	s.sequencer = sim.NewResource(c.Eng, "voltdb-sequencer", 1)
	for i, m := range c.Nodes {
		h := &host{machine: m}
		for j := 0; j < opts.SitesPerHost; j++ {
			h.sites = append(h.sites, &site{
				exec: sim.NewResource(c.Eng, "voltdb-site", 1),
				data: memtable.New(int64(i*opts.SitesPerHost+j) + 31),
			})
		}
		s.hosts = append(s.hosts, h)
	}
	s.down = make([]bool, len(c.Nodes))
	return s
}

// Name implements store.Store.
func (s *Store) Name() string { return "voltdb" }

// CopiesOnIngest implements store.IngestCopier: each site's partition
// data is an arena-backed memtable that copies field bytes, so callers
// may reuse a fields buffer across writes.
func (s *Store) CopiesOnIngest() bool { return true }

// SlabBytes implements store.SlabReporter: the retained footprint of every
// site's memtable arenas.
func (s *Store) SlabBytes() int64 {
	var total int64
	for _, h := range s.hosts {
		for _, st := range h.sites {
			total += st.data.SlabBytes()
		}
	}
	return total
}

// Caps implements store.Store: the multi-partition scan merges every
// site's key-ordered rows, so results are key-ordered and the query layer
// can plan against them.
func (s *Store) Caps() store.Caps { return store.Caps{Scans: true} }

// route returns the host and site owning key.
func (s *Store) route(key string) (*host, *site) {
	part := s.ring.Owner(key)
	h := s.hosts[part/s.opts.SitesPerHost]
	return h, h.sites[part%s.opts.SitesPerHost]
}

// order pays the global transaction initiation cost. On one host this is
// local and free; on multiple hosts each transaction costs OrderPerHost x
// hosts, serialized through the cluster-wide sequencer for synchronous
// clients.
func (s *Store) order(p *sim.Proc, multiPartition bool) {
	n := len(s.hosts)
	if n <= 1 {
		return
	}
	cost := sim.Time(n) * s.opts.OrderPerHost
	if multiPartition {
		cost *= 3
	}
	if s.opts.Async {
		// Pipelined initiation: ordering overlaps with execution.
		p.Sleep(cost / 4)
		return
	}
	p.Use(s.sequencer, cost)
}

// singlePartition runs fn on the owning site as a single-partition txn.
// With a host down the transaction fails if either the owner or the
// arrival host is dead: no k-safety means the partition has no replica,
// and a dead arrival host drops the client's connection.
func (s *Store) singlePartition(p *sim.Proc, key string, reqBytes, respBytes int64, fn func(*host, *site)) error {
	part := s.ring.Owner(key)
	hi := part / s.opts.SitesPerHost
	h := s.hosts[hi]
	st := h.sites[part%s.opts.SitesPerHost]
	// The synchronous client connects to all hosts; the arrival host
	// forwards to the owner when necessary (round-trip within the cluster).
	ai := p.Rand().Intn(len(s.hosts))
	if s.downCount > 0 && (s.down[hi] || s.down[ai]) {
		return store.ErrUnavailable
	}
	arrival := s.hosts[ai]
	serve := func() {
		s.order(p, false)
		st.exec.Acquire(p)
		h.machine.Compute(p, s.opts.ExecCPU)
		fn(h, st)
		st.exec.Release()
	}
	base.Roundtrip(p, arrival.machine, reqBytes, respBytes, func() {
		if arrival == h {
			serve()
			return
		}
		base.Forward(p, arrival.machine, h.machine, reqBytes, respBytes, serve)
	})
	return nil
}

// Read implements store.Store.
func (s *Store) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	var out store.FieldsView
	var ok bool
	err := s.singlePartition(p, key, base.ReqHeader, base.RecordWire, func(h *host, st *site) {
		out, ok = st.data.Get(key)
	})
	if err != nil {
		return store.FieldsView{}, err
	}
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return out, nil
}

func (s *Store) write(p *sim.Proc, key string, f store.Fields) error {
	return s.singlePartition(p, key, base.ReqHeader+base.RecordWire, base.AckWire, func(h *host, st *site) {
		st.data.Put(key, f)
	})
}

// Insert implements store.Store.
func (s *Store) Insert(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Update implements store.Store.
func (s *Store) Update(p *sim.Proc, key string, f store.Fields) error {
	return s.write(p, key, f)
}

// Scan implements store.Store: a multi-partition transaction that blocks
// one site on every host while the fragment runs. The transaction commits
// — every fragment charged, its rows merged into the count-bounded result
// — before the cursor is returned, matching the historical materialized
// Scan's charges. Sites hold disjoint keys (one partition owner per key)
// in key order, so each fragment merges its walk straight into the
// result; the per-row charge is for every row the fragment walked.
func (s *Store) Scan(p *sim.Proc, start string, count int) (store.Cursor, error) {
	ai := p.Rand().Intn(len(s.hosts))
	// A multi-partition transaction needs a fragment from every host.
	if s.downCount > 0 {
		return nil, store.ErrUnavailable
	}
	arrival := s.hosts[ai]
	g := memtable.NewGather(count)
	base.Roundtrip(p, arrival.machine, base.ReqHeader, int64(count)*base.RecordWire, func() {
		s.order(p, true)
		for _, h := range s.hosts {
			h := h
			frag := func() {
				for _, st := range h.sites {
					st.exec.Acquire(p)
					h.machine.Compute(p, s.opts.MPFanoutCPU/sim.Time(s.opts.SitesPerHost))
					rows := g.Scan(st.data, start)
					h.machine.Compute(p, sim.Time(rows)*s.opts.ScanRowCPU)
					st.exec.Release()
				}
			}
			if h == arrival {
				frag()
				continue
			}
			base.Forward(p, arrival.machine, h.machine, base.ReqHeader, int64(count)*base.RecordWire, frag)
		}
	})
	return g, nil
}

// Load implements store.Store.
func (s *Store) Load(key string, f store.Fields) error {
	_, st := s.route(key)
	st.data.Put(key, f)
	return nil
}

// DiskUsage implements store.Store: VoltDB keeps data in memory (excluded
// from the paper's disk experiment).
func (s *Store) DiskUsage() int64 { return 0 }

// snapshotCPUPerByte is the CPU cost of rebuilding partition tables from a
// command-log/snapshot image on rejoin (~100 MB/s).
const snapshotCPUPerByte = 10 * sim.Nanosecond

// KillNode implements fault.Target: the host process dies; without
// k-safety its partitions are gone until restart.
func (s *Store) KillNode(i int) {
	if s.down[i] {
		return
	}
	s.down[i] = true
	s.downCount++
}

// RestartNode implements fault.Target: the rejoining host reloads its
// partitions from the snapshot before serving again.
func (s *Store) RestartNode(p *sim.Proc, i int) {
	if !s.down[i] {
		return
	}
	h := s.hosts[i]
	var bytes int64
	for _, st := range h.sites {
		bytes += st.data.Bytes()
	}
	if bytes > 0 {
		h.machine.DiskRead(p, bytes, false)
		h.machine.Compute(p, sim.Time(bytes)*snapshotCPUPerByte)
	}
	s.down[i] = false
	s.downCount--
}

// NodeDown reports whether host i is down (diagnostics/tests).
func (s *Store) NodeDown(i int) bool { return s.down[i] }

var _ store.Store = (*Store)(nil)
