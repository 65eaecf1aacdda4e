package harness

import (
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestFig3GoldenOutput pins cross-PR determinism at the figure level: the
// rendered Fig 3 at this exact fidelity must match the byte-for-byte
// output captured before the PR-4 zero-alloc write path landed (memtable
// arenas, field slabs, WAL flusher persistence, client buffer reuse).
// Host-side allocation strategy must never leak into simulated results.
//
// If a future PR intentionally changes model numbers (a new calibration,
// an RNG-draw change), regenerate with:
//
//	go build -o /tmp/apmbench ./cmd/apmbench
//	/tmp/apmbench -quiet -figure 3 -scale 0.001 -measure 0.3 -warmup 0.1 \
//	  -nodes 1,2 -parallel 1 > internal/harness/testdata/fig3_quick.golden
//
// and call the shift out in CHANGES.md — that is the same "numbers
// shifted once" protocol PR-2 and PR-3 followed.
func TestFig3GoldenOutput(t *testing.T) {
	checkGolden(t, "3", "testdata/fig3_quick.golden")
}

// TestPlanKindsGoldenOutput pins every special case of the one figure plan
// to output captured before figures and ablations shared it: Fig 17 (load-
// only cells plus the fixed raw-data line), the token ablation (a node
// filter), the compression ablation (two metrics per variant over shared
// cells) and the binlog ablation (load-only variants). Regenerate like
// fig3_quick.golden, with the figure id and golden name swapped.
func TestPlanKindsGoldenOutput(t *testing.T) {
	for _, tc := range []struct{ id, golden string }{
		{"17", "testdata/fig17_quick.golden"},
		{"ablation-cassandra-tokens", "testdata/ablation-cassandra-tokens_quick.golden"},
		{"ablation-cassandra-compression", "testdata/ablation-cassandra-compression_quick.golden"},
		{"ablation-mysql-binlog", "testdata/ablation-mysql-binlog_quick.golden"},
	} {
		t.Run(tc.id, func(t *testing.T) { checkGolden(t, tc.id, tc.golden) })
	}
}

// checkGolden renders figure id at the golden fidelity (scale 0.001,
// measure 0.3s, warmup 0.1s, nodes 1,2, serial) and compares it with the
// golden file.
func checkGolden(t *testing.T, id, golden string) {
	t.Helper()
	if testing.Short() {
		t.Skip("golden figure run skipped in -short")
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Config{
		Scale:      0.001,
		Measure:    300 * sim.Millisecond,
		Warmup:     100 * sim.Millisecond,
		NodeCounts: []int{1, 2},
	})
	r.Workers = 1
	fig, err := r.Figure(id)
	if err != nil {
		t.Fatal(err)
	}
	// apmbench prints a blank separator line after each figure; compare
	// modulo trailing newlines.
	if got := strings.TrimRight(fig.Render(), "\n"); got != strings.TrimRight(string(want), "\n") {
		t.Fatalf("figure %s output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", id, golden, got, want)
	}
}
