package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/harness"
)

// digest hashes every cell's modelled result fields, in plan order, at full
// precision (floats by their bits). A host-only change must leave it
// identical.
func digest(results []harness.CellResult) string {
	h := sha256.New()
	for _, r := range results {
		c := r.Cell
		fmt.Fprintf(h, "%s|%d|%s|%s|%x|%d|%d|%d|%d|%d|%d|%d|%x\n",
			c.System, c.Nodes, c.Workload, c.Queries,
			math.Float64bits(r.Throughput), r.ReadLat, r.WriteLat, r.ScanLat, r.UpdateLat,
			r.Ops, r.Errors, r.Timeouts, math.Float64bits(r.DiskBytesPaperScale))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordedSeeds is how many runner seeds, 0 to recordedSeeds-1, digests.json
// records for every workload. runnerSeed maps every --seed onto one of them.
const recordedSeeds = 24

// recordedJSON maps workload -> runner seed -> digest. A change that moves a
// modelled number on purpose re-records it with -record.
//
//go:embed digests.json
var recordedJSON []byte

// checkRecorded compares got against the recorded digest of (workload,
// runner seed). A seed without a recorded digest fails the check.
func checkRecorded(wl string, seed int64, got string) error {
	var rec map[string]map[string]string
	if err := json.Unmarshal(recordedJSON, &rec); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	want, ok := rec[wl][strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("%s runner seed %d: no recorded digest", wl, seed)
	}
	if got != want {
		return fmt.Errorf("%s runner seed %d: model digest %s, recorded %s", wl, seed, got, want)
	}
	return nil
}

// recordDigests writes the digests of every recorded runner seed of every
// workload to path, one untraced pass each.
func recordDigests(path string) error {
	rec := map[string]map[string]string{}
	for _, wl := range workloads {
		rec[wl.name] = map[string]string{}
		for seed := int64(0); seed < recordedSeeds; seed++ {
			p, err := untracedPass(wl, config(seed))
			if err != nil {
				return err
			}
			rec[wl.name][strconv.FormatInt(seed, 10)] = digest(p.results)
		}
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
