package apm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

func TestKeyOrderedByTimestamp(t *testing.T) {
	a := Measurement{Metric: "HostA/x", Timestamp: 100}.Key()
	b := Measurement{Metric: "HostA/x", Timestamp: 99}.Key()
	c := Measurement{Metric: "HostA/x", Timestamp: 1000}.Key()
	if !(b < a && a < c) {
		t.Fatalf("keys not time ordered: %q %q %q", b, a, c)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Measurement{
		Metric: "HostA/AgentX/ServletB/AverageResponseTime",
		Value:  4, Min: 1, Max: 6, Timestamp: 1332988833, Duration: 15,
	}
	got, err := Decode(m.Key(), store.ViewFields(m.Fields()))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := Decode("nopipe", store.ViewFields(store.Fields{[]byte("1")})); err == nil {
		t.Fatal("accepted key without separator")
	}
	m := Measurement{Metric: "a/b", Timestamp: 5}
	f := m.Fields()
	f[0] = []byte("notanumber")
	if _, err := Decode(m.Key(), store.ViewFields(f)); err == nil {
		t.Fatal("accepted non-numeric value")
	}
}

func TestAgentReportsAllMetricsEachInterval(t *testing.T) {
	a := NewAgent("Host7", 50, 10)
	rng := rand.New(rand.NewSource(1))
	ms := a.Report(1000, rng.Float64)
	if len(ms) != 50 {
		t.Fatalf("reported %d measurements, want 50", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if m.Timestamp != 1000 || m.Duration != 10 {
			t.Fatalf("bad timestamp/duration: %+v", m)
		}
		if m.Min > m.Value || m.Max < m.Value {
			t.Fatalf("min/max do not bracket value: %+v", m)
		}
		if seen[m.Metric] {
			t.Fatalf("duplicate metric %s", m.Metric)
		}
		seen[m.Metric] = true
	}
}

func TestAgentWalkEvolves(t *testing.T) {
	a := NewAgent("H", 1, 10)
	rng := rand.New(rand.NewSource(2))
	v1 := a.Report(10, rng.Float64)[0].Value
	v2 := a.Report(20, rng.Float64)[0].Value
	v3 := a.Report(30, rng.Float64)[0].Value
	if v1 == v2 && v2 == v3 {
		t.Fatal("random walk did not move")
	}
}

func TestIngestRateMatchesPaperScenario(t *testing.T) {
	// §1: 10K nodes x 10K metrics / 10s = 10M measurements/sec.
	if got := IngestRate(10000, 10000, 10); got != 10_000_000 {
		t.Fatalf("ingest = %f, want 10M/s", got)
	}
	// §8: 240 monitored nodes -> 240K inserts/sec.
	if got := IngestRate(240, 10000, 10); got != 240_000 {
		t.Fatalf("ingest = %f, want 240K/s", got)
	}
}

func TestStorageNodesNeeded(t *testing.T) {
	// §8: 240K inserts/s against a store that sustains ~20K/node needs 13
	// nodes; the 5% budget for 240 hosts is 12 -> not within budget.
	nodes, ok := StorageNodesNeeded(240_000, 20_000, 240, 0.05)
	if nodes != 13 || ok {
		t.Fatalf("nodes = %d ok = %v, want 13 over budget (paper's conclusion)", nodes, ok)
	}
	if _, ok := StorageNodesNeeded(100, 0, 10, 0.05); ok {
		t.Fatal("zero throughput cannot be within budget")
	}
}

// Property: encode/decode round-trips arbitrary measurements.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(val, min, max float64, ts uint32, dur uint16) bool {
		m := Measurement{Metric: "Host/A/B/Metric", Value: val, Min: min, Max: max,
			Timestamp: int64(ts), Duration: int64(dur)}
		got, err := Decode(m.Key(), store.ViewFields(m.Fields()))
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyMatchesReferenceFormat(t *testing.T) {
	// The buffer-built key must reproduce the historical
	// fmt.Sprintf("%s|%012d", metric, ts) format exactly, including
	// negative and extra-wide timestamps.
	metrics := []string{"", "HostA/Agent/Component007/HeapUsage", "m|with|pipes"}
	stamps := []int64{0, 1, 999, 1_700_000_000, 999_999_999_999, 1_000_000_000_000, 12_345_678_901_234, -1, -42}
	for _, m := range metrics {
		for _, ts := range stamps {
			want := fmt.Sprintf("%s|%012d", m, ts)
			got := Measurement{Metric: m, Timestamp: ts}.Key()
			if got != want {
				t.Fatalf("Key(%q, %d) = %q, want %q", m, ts, got, want)
			}
		}
	}
}

// BenchmarkMeasurementKey pins the allocation win of the fmt-free key
// builder on the ingest hot path (was fmt.Sprintf with boxed args: 3
// allocs/op and ~190 ns; now one sized buffer and its string conversion).
func BenchmarkMeasurementKey(b *testing.B) {
	m := Measurement{Metric: "HostA/Agent/Component007/AverageResponseTime", Timestamp: 1_700_000_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Timestamp++
		if len(m.Key()) == 0 {
			b.Fatal("empty key")
		}
	}
}

func TestMetricNameMatchesAgent(t *testing.T) {
	a := NewAgent("Host003", 12, 10)
	for i, m := range a.Metrics {
		if got := MetricName("Host003", i); got != m {
			t.Fatalf("MetricName(%d) = %q, agent reports %q", i, got, m)
		}
	}
	if got, want := MetricName("Host003", 7), "Host003/Agent/Component001/CPUUtilization"; got != want {
		t.Fatalf("MetricName(7) = %q, want %q", got, want)
	}
}
