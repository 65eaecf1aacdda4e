package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
)

// minPasses is the fewest untraced passes an end-to-end run takes, however
// short --seconds is.
const minPasses = 3

// pass is one untraced run of every cell of a workload. Phase times are CPU
// time of the process (user+system, both Ps), which the kernel accounts
// without the time a shared host steals from the VM.
type pass struct {
	wall time.Duration
	// phases holds each cell's set-up and then its run phase, in plan
	// order; ref holds the reference samples (hostref.go) taken before the
	// first phase and after every phase.
	phases, ref []time.Duration
	results     []harness.CellResult
}

// untracedPass runs the workload's cells on a fresh runner, serially, the
// way apmbench does. Each cell is split at the runner's post-load hook:
// MemStats fires its "memstats" line once per cell right after the load,
// and Progress fires once the cell's run has finished. At each of these
// phase boundaries the pass takes a reference sample, whose CPU and wall
// time count in no phase and not in the pass's wall time.
func untracedPass(wl workload, cfg harness.Config) (pass, error) {
	r := harness.NewRunner(cfg)
	r.Workers = 1
	cells, err := wl.cells(r)
	if err != nil {
		return pass{}, err
	}
	var p pass
	var kinds []byte        // 's' after a set-up phase, 'r' after a run phase
	var begun time.Duration // CPU time at which the current phase began
	var sampling time.Duration
	var hookErr error
	sample := func() {
		w := time.Now()
		s, err := refSample()
		if err == nil {
			begun, _, err = usage()
		}
		if err != nil && hookErr == nil {
			hookErr = err
		}
		p.ref = append(p.ref, s)
		sampling += time.Since(w)
	}
	boundary := func(kind byte) {
		end, _, err := usage()
		if err != nil && hookErr == nil {
			hookErr = err
		}
		p.phases = append(p.phases, end-begun)
		kinds = append(kinds, kind)
		sample()
	}
	r.MemStats = func(line string) {
		if strings.HasPrefix(line, "memstats ") {
			boundary('s')
		}
	}
	r.Progress = func(string) { boundary('r') }

	sample()
	start := time.Now()
	if err := r.RunAll(cells); err != nil {
		return pass{}, err
	}
	p.wall = time.Since(start) - sampling
	if hookErr != nil {
		return pass{}, hookErr
	}
	if want := strings.Repeat("sr", len(cells)); string(kinds) != want {
		return pass{}, fmt.Errorf("%s: %d cells but phase boundaries %q", wl.name, len(cells), kinds)
	}
	for _, c := range cells {
		res, err := r.Run(c) // served from the runner's cache
		if err != nil {
			return pass{}, err
		}
		p.results = append(p.results, res)
	}
	return p, nil
}

// passReport is what a -pass child prints about its one untraced pass.
type passReport struct {
	Wall        float64   // seconds
	Phases, Ref []float64 // pass.phases and pass.ref, CPU seconds
	Ops         int64
	PeakRSSMB   float64
	Digest      string
}

// scaled returns the pass's set-up and run CPU seconds, summed over cells,
// each phase scaled to refNominal by the reference samples around it.
func (r passReport) scaled() (setup, run float64) {
	for i, s := range scaleCPU(r.Phases, r.Ref) {
		if i%2 == 0 {
			setup += s
		} else {
			run += s
		}
	}
	return setup, run
}

// runPass measures one untraced pass in this process, which has run
// nothing else.
func runPass(wl workload, seed int64) (passReport, error) {
	p, err := untracedPass(wl, config(seed))
	if err != nil {
		return passReport{}, err
	}
	_, rss, err := usage()
	if err != nil {
		return passReport{}, err
	}
	rep := passReport{
		Wall: p.wall.Seconds(), Phases: seconds(p.phases), Ref: seconds(p.ref),
		PeakRSSMB: rss, Digest: digest(p.results),
	}
	for _, res := range p.results {
		rep.Ops += res.Ops
	}
	return rep, nil
}

// childPass runs one untraced pass in a fresh child process (perfbench
// -pass) and returns its report.
func childPass(wl workload, seed int64) (passReport, error) {
	self, err := os.Executable()
	if err != nil {
		return passReport{}, err
	}
	cmd := exec.Command(self, "-pass", "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return passReport{}, err
	}
	var r passReport
	if err := json.Unmarshal(out, &r); err != nil {
		return passReport{}, err
	}
	if len(r.Phases)%2 != 0 || len(r.Ref) != len(r.Phases)+1 {
		return passReport{}, fmt.Errorf("pass report: %d phases and %d reference samples", len(r.Phases), len(r.Ref))
	}
	setup, run := r.scaled()
	fmt.Fprintf(os.Stderr, "perfbench: %s pass: wall %.3fs scaled cpu %.3fs (setup %.3fs, run %.3fs) ref median %.3fms ops %d rss %.1fMB\n",
		wl.name, r.Wall, setup+run, setup, run, median(append([]float64(nil), r.Ref...))*1e3, r.Ops, r.PeakRSSMB)
	return r, nil
}

// endToEnd runs untraced passes for the time budget (at least minPasses),
// each in a fresh child process. It starts another pass only while that
// pass, at the mean pass time so far, would end nearer the budget than the
// run stands now, so a run takes the budget give or take half a pass. A fresh process per pass is what a user of
// apmbench waits for. It also keeps passes independent: in one long-lived
// process later passes run slower and peak RSS grows with the Procs earlier
// passes leaked, which would tie the figures to how many passes fit in the
// budget. The time metrics are medians over passes, CPU times scaled to
// refNominal (see hostref.go), since a busy host can slow single passes a
// lot. Peak RSS, which GC timing spreads evenly both ways and host load
// does not move, is the mean: over ten runs it spread less than the median.
func endToEnd(wl workload, seed int64, budget time.Duration) (result, error) {
	var reps []passReport
	start := time.Now()
	for len(reps) < minPasses || time.Since(start)+time.Since(start)/time.Duration(2*len(reps)) < budget {
		r, err := childPass(wl, seed)
		if err != nil {
			return result{}, fmt.Errorf("pass %d: %w", len(reps)+1, err)
		}
		reps = append(reps, r)
	}

	correct := true
	for i, r := range reps[1:] {
		if r.Digest != reps[0].Digest {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d digest %s differs from pass 1 digest %s\n", i+2, r.Digest, reps[0].Digest)
			correct = false
		}
	}
	if err := checkRecorded(wl.name, seed, reps[0].Digest); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		correct = false
	}

	var cpu, setup, tput, rss []float64
	for _, r := range reps {
		s, run := r.scaled()
		cpu = append(cpu, s+run)
		setup = append(setup, s)
		tput = append(tput, ratio(float64(r.Ops), run))
		rss = append(rss, r.PeakRSSMB)
	}
	m := metrics{}
	m.set("cpu_s", median(cpu), "s")
	m.set("setup_s", median(setup), "s")
	m.set("sim_ops_per_cpu_s", median(tput), "1/s")
	m.set("peak_rss_mb", mean(rss), "MB")
	return result{Correct: correct, Attempted: int64(len(reps)), Metrics: m}, nil
}

// usage reads the process's user+system CPU time so far and its peak
// resident set in MiB (Linux reports ru_maxrss in KiB).
func usage() (cpu time.Duration, peakRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024, nil
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
