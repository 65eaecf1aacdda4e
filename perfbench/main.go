// Command perfbench is the repository benchmark: a host-time ledger over
// three paper workloads, each run through harness.Runner exactly as
// `apmbench -quick -parallel 1` runs it.
//
// It is built and run by run.sh from the repository root:
//
//	bash perfbench/run.sh --workload ycsb-rs --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it repeats untraced passes over the workload's cells for
// --seconds, each in a fresh process, and prints the end-to-end metrics.
// With --trace 1 it runs one untraced pass in a fresh child process, one
// traced pass in its own still fresh process that re-drives the same cells
// through the public calls Runner.run makes with every store call observed
// from outside, and then the single-Proc layer probes, and prints the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; correct is false when a
// model digest disagrees with another pass or with digests.json. README.md
// lists every metric and what it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
)

// workload is one named cell set. Every workload uses Cluster M and the
// quick node sweep; README.md records why each was chosen.
type workload struct {
	name  string
	cells func(r *harness.Runner) ([]harness.Cell, error)
}

var workloads = []workload{
	// Table 1 RS on the five scan systems: the Fig 12/13 cells.
	{"ycsb-rs", func(r *harness.Runner) ([]harness.Cell, error) { return r.CellsFor("12"), nil }},
	// Table 1 W (99% inserts) on all six systems: the Fig 9-11 cells.
	{"ycsb-w", func(r *harness.Runner) ([]harness.Cell, error) { return r.CellsFor("9"), nil }},
	// The built-in dashboard query mix over the time-ordered APM grid.
	{"apm-dashboard", func(r *harness.Runner) ([]harness.Cell, error) {
		return harness.APMDashboard(r.Cfg.NodeCounts).Cells()
	}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runnerSeed maps a benchmark --seed onto one of the recordedSeeds runner
// seeds, so that every run's model outputs are checked against a recorded
// digest.
func runnerSeed(seed int64) int64 {
	return (seed%recordedSeeds + recordedSeeds) % recordedSeeds
}

// config is apmbench's -quick fidelity (scale 0.001, warmup 0.1 s,
// measure 0.3 s, nodes 1,2,4) with one repetition per cell. The seed is the
// runner's Config.Seed, from which every cell seed is derived; 0 takes the
// harness default.
func config(seed int64) harness.Config {
	return harness.Config{
		Scale:      0.001,
		Warmup:     100 * sim.Millisecond,
		Measure:    300 * sim.Millisecond,
		NodeCounts: []int{1, 2, 4},
		Seed:       seed,
	}.Defaults()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the line the benchmark prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ycsb-rs, ycsb-w or apm-dashboard")
	seed := flag.Int64("seed", 1, fmt.Sprintf("workload seed; the runner seed is seed mod %d, and every cell seed derives from it", recordedSeeds))
	seconds := flag.Float64("seconds", 10, "host seconds of untraced passes to measure (at least minPasses run)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass, layer probes and per-layer metrics")
	record := flag.String("record", "", "instead of measuring, write the model digests of every recorded runner seed of every workload to this file")
	onePass := flag.Bool("pass", false, "run one untraced pass and print its measurements as JSON (the end-to-end run starts one such process per pass)")
	flag.Parse()
	rseed := runnerSeed(*seed)

	// Cells run serially (Workers=1); the second core takes GC work, as
	// under `apmbench -parallel 1` on a two-core host.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fatal(err)
		}
		return
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *onePass {
		r, err := runPass(wl, rseed)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatal(err)
		}
		return
	}
	var res result
	switch *trace {
	case 0:
		res, err = endToEnd(wl, rseed, time.Duration(*seconds*float64(time.Second)))
	case 1:
		res, err = traced(wl, rseed)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fatal(err)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: model outputs failed the digest check")
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
