// Package apm implements the application performance management data model
// of the paper (§2–§3): measurements with a metric name, value, min/max
// aggregates, timestamp and duration (Fig 2), agents that report thousands
// of metrics at a fixed interval, and the paper's sizing arithmetic. The
// §2 online window queries over stored measurements are package query's
// job.
package apm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/store"
)

// Measurement is one reported data point (paper Fig 2).
type Measurement struct {
	Metric    string  // e.g. "HostA/AgentX/ServletB/AverageResponseTime"
	Value     float64 // aggregated value over the reporting interval
	Min       float64
	Max       float64
	Timestamp int64 // unix seconds
	Duration  int64 // aggregation window, seconds
}

// Key encodes the measurement's storage key: metric identity plus
// zero-padded timestamp, so that per-metric scans return time ranges in
// order. APM data is append-only (§3), so the key is unique per interval.
// This is the ingest pipeline's per-measurement hot path, so the key is
// assembled into one sized buffer instead of going through fmt (the format
// is exactly "%s|%012d").
func (m Measurement) Key() string {
	b := make([]byte, 0, len(m.Metric)+1+timestampWidth)
	b = append(b, m.Metric...)
	b = append(b, '|')
	b = appendPaddedInt(b, m.Timestamp)
	return string(b)
}

// timestampWidth is the zero-padded timestamp field width; unix seconds fit
// in 12 digits until the year 33658.
const timestampWidth = 12

// appendPaddedInt appends ts zero-padded to timestampWidth digits,
// matching fmt's %012d (sign counts toward the width; wider values extend
// past it).
func appendPaddedInt(b []byte, ts int64) []byte {
	if ts < 0 {
		b = append(b, '-')
		return appendUintPadded(b, uint64(-ts), timestampWidth-1)
	}
	return appendUintPadded(b, uint64(ts), timestampWidth)
}

func appendUintPadded(b []byte, v uint64, width int) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = '0' + byte(v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for pad := width - (len(tmp) - i); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, tmp[i:]...)
}

// Fields encodes the measurement payload as the record's value fields.
func (m Measurement) Fields() store.Fields {
	return store.Fields{
		[]byte(fmt.Sprintf("%g", m.Value)),
		[]byte(fmt.Sprintf("%g", m.Min)),
		[]byte(fmt.Sprintf("%g", m.Max)),
		[]byte(strconv.FormatInt(m.Timestamp, 10)),
		[]byte(strconv.FormatInt(m.Duration, 10)),
	}
}

// Decode reconstructs a measurement from its key and a view of its fields
// (a record read or scanned back from a store; use store.ViewFields to
// decode a hand-built field set).
func Decode(key string, f store.FieldsView) (Measurement, error) {
	sep := strings.LastIndexByte(key, '|')
	if sep < 0 || f.Len() < 5 {
		return Measurement{}, fmt.Errorf("apm: malformed record %q (%d fields)", key, f.Len())
	}
	var m Measurement
	m.Metric = key[:sep]
	var err error
	if m.Value, err = strconv.ParseFloat(string(f.Field(0)), 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad value in %q: %w", key, err)
	}
	if m.Min, err = strconv.ParseFloat(string(f.Field(1)), 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad min in %q: %w", key, err)
	}
	if m.Max, err = strconv.ParseFloat(string(f.Field(2)), 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad max in %q: %w", key, err)
	}
	if m.Timestamp, err = strconv.ParseInt(string(f.Field(3)), 10, 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad timestamp in %q: %w", key, err)
	}
	if m.Duration, err = strconv.ParseInt(string(f.Field(4)), 10, 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad duration in %q: %w", key, err)
	}
	return m, nil
}

// Agent simulates a monitoring agent reporting a set of metrics every
// Interval seconds (§2: agents aggregate events over fixed intervals).
type Agent struct {
	Host     string
	Metrics  []string // metric names relative to the host
	Interval int64    // seconds

	walk map[string]float64
}

// metricKinds are the metric kinds every synthetic component reports.
var metricKinds = [...]string{"AverageResponseTime", "ConnectionCount", "CPUUtilization", "ErrorRate", "HeapUsage"}

// MetricName names host's i-th synthetic metric: components report every
// kind in turn, so metric i is kind i%5 of component i/5.
func MetricName(host string, i int) string {
	return fmt.Sprintf("%s/Agent/Component%03d/%s", host, i/len(metricKinds), metricKinds[i%len(metricKinds)])
}

// NewAgent creates an agent with n synthetic metrics.
func NewAgent(host string, n int, interval int64) *Agent {
	a := &Agent{Host: host, Interval: interval, walk: map[string]float64{}}
	for i := 0; i < n; i++ {
		name := MetricName(host, i)
		a.Metrics = append(a.Metrics, name)
		a.walk[name] = 50 // start mid-range so the walk moves freely
	}
	return a
}

// Report produces the agent's measurements for the interval ending at ts.
// Values follow a bounded random walk driven by rnd (a uniform [0,1) draw
// per metric keeps the agent deterministic under the simulation's seed).
func (a *Agent) Report(ts int64, rnd func() float64) []Measurement {
	out := make([]Measurement, 0, len(a.Metrics))
	for _, metric := range a.Metrics {
		v := a.walk[metric] + (rnd()-0.5)*10
		if v < 0 {
			v = 0
		}
		a.walk[metric] = v
		out = append(out, Measurement{
			Metric:    metric,
			Value:     v,
			Min:       v * 0.8,
			Max:       v * 1.25,
			Timestamp: ts,
			Duration:  a.Interval,
		})
	}
	return out
}

// IngestRate computes the paper's sizing arithmetic (§1, §8): hosts
// reporting metricsPerHost measurements every intervalSec seconds.
func IngestRate(hosts, metricsPerHost int, intervalSec int64) float64 {
	if intervalSec <= 0 {
		return 0
	}
	return float64(hosts) * float64(metricsPerHost) / float64(intervalSec)
}

// StorageNodesNeeded sizes a storage tier: measurements/sec divided by a
// store's per-node Workload W throughput, respecting the paper's rule that
// at most budgetFraction of the monitored fleet may be storage nodes.
func StorageNodesNeeded(ingestPerSec, perNodeThroughput float64, hosts int, budgetFraction float64) (nodes int, withinBudget bool) {
	if perNodeThroughput <= 0 {
		return 0, false
	}
	nodes = int(ingestPerSec/perNodeThroughput) + 1
	budget := int(float64(hosts) * budgetFraction)
	return nodes, nodes <= budget
}
