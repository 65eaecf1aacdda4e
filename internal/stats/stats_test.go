package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram()
	h.Record(1 * sim.Millisecond)
	h.Record(3 * sim.Millisecond)
	if got := h.Mean(); got != 2*sim.Millisecond {
		t.Fatalf("Mean = %v, want 2ms", got)
	}
	if h.N() != 2 {
		t.Fatalf("N = %d, want 2", h.N())
	}
}

func TestHistogramMinMax(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * sim.Microsecond)
	h.Record(7 * sim.Second)
	if h.Min() != 5*sim.Microsecond || h.Max() != 7*sim.Second {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestQuantileApproximation(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(sim.Time(i) * sim.Millisecond)
	}
	p50 := h.Quantile(0.50)
	// True median is 500ms; allow the histogram's ~5% relative error.
	if p50 < 450*sim.Millisecond || p50 > 550*sim.Millisecond {
		t.Fatalf("P50 = %v, want ~500ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*sim.Millisecond || p99 > 1100*sim.Millisecond {
		t.Fatalf("P99 = %v, want ~990ms", p99)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	h.Record(10 * sim.Millisecond)
	got := h.Quantile(0.5)
	if got != 10*sim.Millisecond {
		t.Fatalf("single-value P50 = %v, want clamped to 10ms", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(1 * sim.Millisecond)
	b.Record(3 * sim.Millisecond)
	a.Merge(b)
	if a.N() != 2 || a.Mean() != 2*sim.Millisecond {
		t.Fatalf("after merge N=%d mean=%v", a.N(), a.Mean())
	}
	if a.Max() != 3*sim.Millisecond {
		t.Fatalf("merged max = %v", a.Max())
	}
}

func TestCollectorWindowGating(t *testing.T) {
	c := NewCollector()
	c.Record(OpRead, sim.Millisecond) // before Begin: dropped
	c.Begin(10 * sim.Second)
	c.Record(OpRead, sim.Millisecond)
	c.Record(OpInsert, 2*sim.Millisecond)
	c.RecordError()
	c.Finish(12 * sim.Second)
	c.Record(OpRead, sim.Millisecond) // after Finish: dropped
	if c.Ops() != 2 {
		t.Fatalf("Ops = %d, want 2", c.Ops())
	}
	if c.Errors() != 1 {
		t.Fatalf("Errors = %d, want 1", c.Errors())
	}
	if got := c.Throughput(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Throughput = %f, want 1 op/s over 2s window", got)
	}
}

func TestCollectorSummarize(t *testing.T) {
	c := NewCollector()
	c.Begin(0)
	for i := 0; i < 100; i++ {
		c.Record(OpRead, 5*sim.Millisecond)
		c.Record(OpScan, 20*sim.Millisecond)
	}
	c.Finish(1 * sim.Second)
	s := c.Summarize()
	if s.Read.N != 100 || s.Scan.N != 100 {
		t.Fatalf("summary counts: %+v", s)
	}
	if s.Read.Mean != 5*sim.Millisecond {
		t.Fatalf("read mean = %v", s.Read.Mean)
	}
	if s.Throughput != 200 {
		t.Fatalf("throughput = %f, want 200", s.Throughput)
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "READ" || OpScan.String() != "SCAN" {
		t.Fatal("OpKind names wrong")
	}
}

func TestMeanMedianHelpers(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty helpers should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %f", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median odd = %f", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("Median even = %f", got)
	}
}

// Property: quantiles are monotonic in q and bounded by min/max.
func TestPropertyQuantileMonotonic(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(sim.Time(v%1e9) + sim.Microsecond)
		}
		prev := sim.Time(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			cur := h.Quantile(q)
			if cur < prev || cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram quantile is within ~6% of the true quantile for
// uniform data.
func TestPropertyQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Record(sim.Time(i) * sim.Microsecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		truth := float64(q) * n
		got := float64(h.Quantile(q)) / float64(sim.Microsecond)
		if math.Abs(got-truth)/truth > 0.06 {
			t.Fatalf("q=%f: got %f, truth %f", q, got, truth)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(sim.Time(i%1000000) * sim.Microsecond)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 100000; i++ {
		h.Record(sim.Time(i) * sim.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}
