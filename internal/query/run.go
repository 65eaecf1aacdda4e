package query

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// RunConfig drives a closed-loop query workload: Clients dashboard
// sessions, each issuing one query at a time drawn from the weighted Mix,
// against a store pre-loaded with Dataset.
type RunConfig struct {
	Store   store.Store
	Dataset Dataset
	Mix     Mix // normalized
	Clients int
	Warmup  sim.Time
	Measure sim.Time
	// UnavailableBackoff paces retries against down nodes (default 1ms).
	UnavailableBackoff sim.Time
}

// Result carries the collector; query latencies are recorded as scan
// operations (a query is a scan pipeline; the harness reports them under
// the scan-latency metric).
type Result struct {
	*stats.Collector
	Config RunConfig
}

// Run executes the query workload and returns collected statistics,
// mirroring ycsb.Run's closed-loop shape: warmup, then a measured window,
// then in-flight queries drain.
func Run(e *sim.Engine, cfg RunConfig) (*Result, error) {
	if err := cfg.Mix.Normalize(); err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("query: need at least one client")
	}
	if cfg.Measure <= 0 {
		return nil, fmt.Errorf("query: measurement window must be positive")
	}
	if cfg.Dataset.Hosts <= 0 {
		return nil, fmt.Errorf("query: dataset has no hosts")
	}
	if !cfg.Store.Caps().Scans {
		return nil, store.ErrScansUnsupported
	}
	backoff := cfg.UnavailableBackoff
	if backoff <= 0 {
		backoff = sim.Millisecond
	}
	col := stats.NewCollector()
	stopAt := e.Now() + cfg.Warmup + cfg.Measure
	e.Schedule(cfg.Warmup, func() { col.Begin(e.Now()) })
	e.Schedule(cfg.Warmup+cfg.Measure, func() { col.Finish(e.Now()) })

	// Plan each spec once; Execute is reentrant across clients.
	plans := make([]*Query, len(cfg.Mix))
	for i, s := range cfg.Mix {
		q, err := Plan(s)
		if err != nil {
			return nil, err
		}
		plans[i] = q
	}

	for i := 0; i < cfg.Clients; i++ {
		e.Go(fmt.Sprintf("query-client-%d", i), func(p *sim.Proc) {
			rng := p.Rand()
			for p.Now() < stopAt {
				q := plans[cfg.Mix.pick(rng.Float64())]
				host := rng.Intn(cfg.Dataset.Hosts)
				from, to := cfg.Dataset.Window(q.Spec.WindowSec)
				ranges := cfg.Dataset.HostRanges(host, from, to)
				opStart := p.Now()
				_, err := q.Execute(p, cfg.Store, ranges)
				if err != nil {
					col.RecordError()
					if errors.Is(err, store.ErrUnavailable) {
						p.Sleep(backoff)
					}
					continue
				}
				col.Record(stats.OpScan, p.Now()-opStart)
			}
		})
	}
	e.Run(0)
	if col.Window() == 0 {
		col.Finish(e.Now())
	}
	return &Result{Collector: col, Config: cfg}, nil
}
