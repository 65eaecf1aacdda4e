package ycsb

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// keyBuf builds record keys into one reusable buffer, handing them out as
// zero-copy string views. Sound because every store copies key bytes on
// ingest and never keeps a lookup key (the store.Store contract): the view
// aliases the buffer, and the next key overwrites it in place. Each
// goroutine owns its buffer; the view must not outlive the operation it
// was built for.
type keyBuf []byte

func (b *keyBuf) key(i int64) string {
	*b = store.AppendKey((*b)[:0], i)
	return unsafe.String(unsafe.SliceData(*b), len(*b))
}

// RunConfig describes one benchmark execution against a deployed store.
type RunConfig struct {
	Store    store.Store
	Workload Workload
	// Clients is the number of concurrent connections (closed loop). The
	// paper used 128 per server node on Cluster M, 2 per core on Cluster D.
	Clients int
	// TargetOpsPerSec throttles the aggregate rate (YCSB's -target flag);
	// zero runs at maximum throughput.
	TargetOpsPerSec float64
	// InitialRecords is how many records were loaded before the run.
	InitialRecords int64
	// Warmup and Measure bound the run: statistics are collected only
	// inside the measurement window.
	Warmup  sim.Time
	Measure sim.Time
	// OpTimeout classifies operations slower than this as timed out: they
	// count as failures (and windowed failures), not latency samples. Zero
	// disables the classification.
	OpTimeout sim.Time
	// UnavailableBackoff is how long a client sleeps after an
	// ErrUnavailable response before retrying. Instant failures do not
	// advance virtual time, so without a backoff a closed-loop client
	// would spin forever at one instant against a fully-down store.
	// Zero means the 1ms default.
	UnavailableBackoff sim.Time
	// TrackWindows records per-window latency quantiles and availability
	// over the measurement window (fault-injection diagnostics).
	TrackWindows bool
	// WindowInterval is the window width for TrackWindows (default
	// Measure/20).
	WindowInterval sim.Time
}

// defaultUnavailableBackoff paces closed-loop retries against a down node.
const defaultUnavailableBackoff = sim.Millisecond

// Result carries the collector plus run metadata.
type Result struct {
	*stats.Collector
	Config RunConfig
	// Windows holds per-window quantiles and availability (nil unless
	// Config.TrackWindows was set).
	Windows *stats.WindowedLatency
}

// Load populates the store with n records (record numbers 0..n-1) without
// consuming virtual time, mirroring the paper's separate load phase.
func Load(s store.Store, n int64) error { return LoadSized(s, n, store.FieldBytes) }

// LoadSized is Load with fieldBytes-sized value fields per record, for
// workloads that vary record size (0 means the default 10 bytes). One key
// buffer and one fields buffer serve the whole load, since stores copy
// both on ingest.
func LoadSized(s store.Store, n int64, fieldBytes int) error {
	var buf store.Fields
	var kb keyBuf
	for i := int64(0); i < n; i++ {
		buf = store.FillFields(buf, i, fieldBytes)
		if err := s.Load(kb.key(i), buf); err != nil {
			return fmt.Errorf("ycsb: load record %d: %w", i, err)
		}
	}
	return nil
}

// Run executes the workload and returns collected statistics. It drives the
// engine itself (warmup + measure, then lets in-flight operations drain).
func Run(e *sim.Engine, cfg RunConfig) (*Result, error) {
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("ycsb: need at least one client")
	}
	if cfg.Measure <= 0 {
		return nil, fmt.Errorf("ycsb: measurement window must be positive")
	}
	col := stats.NewCollector()
	var windows *stats.WindowedLatency
	if cfg.TrackWindows {
		wi := cfg.WindowInterval
		if wi <= 0 {
			wi = cfg.Measure / 20
		}
		windows = stats.NewWindowedLatency(e.Now()+cfg.Warmup, wi)
	}
	backoff := cfg.UnavailableBackoff
	if backoff <= 0 {
		backoff = defaultUnavailableBackoff
	}
	stopAt := e.Now() + cfg.Warmup + cfg.Measure
	inserted := cfg.InitialRecords
	chooser := newChooser(cfg.Workload.Chooser)
	fieldBytes := cfg.Workload.FieldSize()

	// Per-client pacing interval for throttled runs.
	var interval sim.Time
	if cfg.TargetOpsPerSec > 0 {
		perClient := cfg.TargetOpsPerSec / float64(cfg.Clients)
		interval = sim.Time(float64(sim.Second) / perClient)
	}

	e.Schedule(cfg.Warmup, func() { col.Begin(e.Now()) })
	e.Schedule(cfg.Warmup+cfg.Measure, func() { col.Finish(e.Now()) })

	for i := 0; i < cfg.Clients; i++ {
		e.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			rng := p.Rand()
			// Stores copy key and field bytes on ingest, so each client
			// reuses one key buffer and one fields buffer for every
			// operation: the steady-state operation loop allocates nothing.
			var fbuf store.Fields
			var kb keyBuf
			// Desynchronize client start within one pacing interval.
			if interval > 0 {
				p.Sleep(sim.Time(rng.Int63n(int64(interval) + 1)))
			}
			for p.Now() < stopAt {
				opStart := p.Now()
				kind := cfg.Workload.pick(rng.Float64())
				var err error
				switch kind {
				case stats.OpRead:
					key := kb.key(chooser.Choose(inserted, rng.Float64(), rng.Float64()))
					_, err = cfg.Store.Read(p, key)
				case stats.OpScan:
					key := kb.key(chooser.Choose(inserted, rng.Float64(), rng.Float64()))
					var cur store.Cursor
					cur, err = cfg.Store.Scan(p, key, cfg.Workload.ScanLength)
					if err == nil {
						// Drain like the YCSB client iterating its result
						// set; all virtual time was charged at open, so
						// the drain is host-side only.
						for cur.Next() {
						}
						err = cur.Close()
					}
				case stats.OpInsert:
					id := inserted
					inserted++
					fbuf = store.FillFields(fbuf, id, fieldBytes)
					err = cfg.Store.Insert(p, kb.key(id), fbuf)
				case stats.OpUpdate:
					id := chooser.Choose(inserted, rng.Float64(), rng.Float64())
					fbuf = store.FillFields(fbuf, id, fieldBytes)
					err = cfg.Store.Update(p, kb.key(id), fbuf)
				}
				switch lat := p.Now() - opStart; {
				case err != nil:
					col.RecordError()
					if windows != nil && col.Active() {
						windows.RecordFailure(p.Now())
					}
					if errors.Is(err, store.ErrUnavailable) {
						// Pace retries: the failure was instant in
						// virtual time.
						p.Sleep(backoff)
					}
				case cfg.OpTimeout > 0 && lat > cfg.OpTimeout:
					col.RecordTimeout()
					if windows != nil && col.Active() {
						windows.RecordFailure(p.Now())
					}
				default:
					col.Record(kind, lat)
					if windows != nil && col.Active() {
						windows.Record(p.Now(), lat)
					}
				}
				if interval > 0 {
					next := opStart + interval
					if next > p.Now() {
						p.Sleep(next - p.Now())
					}
				}
			}
		})
	}
	e.Run(0)
	if col.Window() == 0 {
		col.Finish(e.Now())
	}
	return &Result{Collector: col, Config: cfg, Windows: windows}, nil
}
