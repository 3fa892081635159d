// Package telemetry is the repository's runtime-observability core: atomic
// counters, gauges, and log-bucketed (HDR-style) latency histograms,
// collected in a Registry that renders Prometheus exposition text and JSON
// snapshots.
//
// The package is designed to be cheap enough to leave on in the firmware's
// hot path:
//
//   - Recording is allocation-free: a counter add is one atomic add, a
//     histogram observation is one atomic add on a pre-allocated bucket. No maps, no locks, no time formatting.
//   - Instruments are resolved ONCE at construction time (device startup)
//     and held as struct fields; the registry's name→instrument map is never
//     touched per operation.
//   - Every method is nil-receiver safe. A disabled subsystem holds nil
//     instrument pointers and every Add/Set/Observe is a single predictable
//     branch — which is what makes "telemetry off" a fair baseline for the
//     overhead budget (DESIGN.md §11).
//   - Nothing here touches the simulation engine. Recording happens on sim
//     actors, scraping happens on plain HTTP goroutines; both sides see only
//     atomics, so a scrape can never stall the virtual clock (and never
//     takes a sim lock).
//
// Durations recorded into histograms are VIRTUAL time (sim.Engine.Now
// deltas): the simulation's latencies are the quantity the paper's figures
// are about. Wall-clock profiling belongs to pprof, which the admin
// endpoint also serves.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kaml-ssd/kaml/internal/stats"
)

// Kind classifies an instrument for exposition.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// Counter is a monotonically increasing atomic counter. Its writers are
// the actors of one engine, which run one at a time, so one cell takes
// every add; it is atomic for the plain goroutines that scrape it.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe for any goroutine; no-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value (queue depth, occupancy, watermark).
// Gauges are written from one logical place at a time, so a single atomic
// is enough.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. No-op on nil.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (peak tracking).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket geometry. Values (int64, typically nanoseconds) are
// bucketed HDR-style: exact below 2^histSubBits, then histSub linear
// sub-buckets per power-of-two octave, which bounds the relative
// quantization error at 1/histSub (6.25%) — i.e. a reported quantile is
// always within one bucket width of the exact sample quantile.
const (
	histSubBits = 4                // log2 of sub-buckets per octave
	histSub     = 1 << histSubBits // 16
	histOctaves = 40 - histSubBits // highest representable ~2^40ns ≈ 18min
	histBuckets = histSub + histOctaves*histSub
)

// bucketOf maps a value to its bucket index. Values above the highest
// bucket clamp into the last one; negatives clamp to zero.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	octave := bits.Len64(uint64(v)) - 1 // >= histSubBits
	sub := int(v>>(uint(octave)-histSubBits)) - histSub
	idx := histSub + (octave-histSubBits)*histSub + sub
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	i -= histSub
	octave := i/histSub + histSubBits
	sub := i % histSub
	width := int64(1) << (uint(octave) - histSubBits)
	return (int64(histSub)+int64(sub)+1)*width - 1
}

// Histogram is a concurrency-safe log-bucketed value distribution. The
// observation count is not tracked separately — snapshots derive it by
// summing the buckets, keeping Observe at two atomic adds plus the max
// race (the hot path pays per sample; snapshots are rare and may pay per
// bucket).
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value. Safe for any goroutine; no-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveDuration records a duration sample (stored in nanoseconds).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Sum returns the total observed mass (nanoseconds for duration
// histograms).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Count returns the number of observations (a full bucket scan).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// HistSnapshot is a point-in-time copy of a histogram, mergeable and
// queryable.
type HistSnapshot struct {
	Buckets [histBuckets]int64 `json:"-"`
	N       int64              `json:"count"`
	Sum     int64              `json:"sum"`
	MaxV    int64              `json:"max"`
}

// Snapshot returns a point-in-time copy of the histogram. It walks every
// bucket, so callers that poll it (the cluster's hedging policy deriving
// its p95 delay) should amortize across many observations. Nil-safe.
func (h *Histogram) Snapshot() HistSnapshot { return h.snapshot() }

// snapshot copies the histogram's state.
func (h *Histogram) snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.N += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	s.MaxV = h.max.Load()
	return s
}

// Merge folds other into s bucket-by-bucket.
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
	s.N += other.N
	s.Sum += other.Sum
	if other.MaxV > s.MaxV {
		s.MaxV = other.MaxV
	}
}

// Quantile returns the q-quantile (0..1) as the upper bound of the bucket
// holding the q-th sample — within one bucket width of the exact
// nearest-rank quantile. The rank is stats.NearestRank's, so the only
// divergence from an exact reservoir is the bucket quantization.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.N == 0 {
		return 0
	}
	rank := int64(stats.NearestRank(q, int(s.N)))
	var seen int64
	for i := range s.Buckets {
		seen += s.Buckets[i]
		if seen > rank {
			u := bucketUpper(i)
			if u > s.MaxV {
				u = s.MaxV // the top bucket's tail never exceeds the true max
			}
			return u
		}
	}
	return s.MaxV
}

// Mean returns the arithmetic mean of the observations.
func (s *HistSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Unit declares how a metric's int64 values should be rendered.
type Unit uint8

// Units.
const (
	UnitNone    Unit = iota // plain number (bytes, records, commands)
	UnitSeconds             // int64 nanoseconds, exposed as float seconds
)

// metric is one registered instrument.
type metric struct {
	name   string
	labels []string // flattened k1,v1,k2,v2...
	kind   Kind
	unit   Unit
	help   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// key renders the metric's identity (name + sorted label pairs).
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + labelString(labels) + "}"
}

// labelString renders flattened label pairs as k="v",k2="v2".
func labelString(labels []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	return b.String()
}

// Registry holds a set of named instruments. Construction (Counter / Gauge
// / Histogram) takes a lock and may allocate; do it once at subsystem
// startup and keep the returned pointers. A nil *Registry is a valid
// disabled registry: every getter returns nil and every nil instrument
// no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []*metric // registration order, for stable exposition
	help    map[string]string
}

// NewRegistry returns an empty registry. If global collection is enabled
// (CollectGlobal), the registry is also tracked for GlobalSnapshot.
func NewRegistry() *Registry {
	r := &Registry{
		metrics: make(map[string]*metric),
		help:    make(map[string]string),
	}
	global.mu.Lock()
	if global.enabled {
		global.regs = append(global.regs, r)
	}
	global.mu.Unlock()
	return r
}

// Help sets the exposition help string for a metric family. Optional.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// lookup returns (creating if needed) the metric under name+labels. A new
// counter or gauge series wraps the given cell when one is passed (Adopt*),
// else a freshly allocated one.
func (r *Registry) lookup(name string, kind Kind, unit Unit, labels []string, c *Counter, g *Gauge) *metric {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as a different kind", key))
		}
		return m
	}
	m := &metric{name: name, labels: append([]string(nil), labels...), kind: kind, unit: unit}
	switch kind {
	case KindCounter:
		if m.counter = c; c == nil {
			m.counter = &Counter{}
		}
	case KindGauge:
		if m.gauge = g; g == nil {
			m.gauge = &Gauge{}
		}
	case KindHistogram:
		m.hist = &Histogram{}
	}
	r.metrics[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns (creating if needed) the named counter. Labels are
// flattened key/value pairs: Counter("x_total", "log", "3").
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, UnitNone, labels, nil, nil).counter
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, UnitNone, labels, nil, nil).gauge
}

// AdoptCounter lists c under name+labels. c is a cell its component owns
// (a struct field it increments whether or not anything is exported); the
// registry becomes a directory entry for that same cell — a scrape, a
// later Counter(name, labels...) and the owner's own Stats() all read one
// value. A series that already exists keeps its cell (a second cache over
// one device stays private). No-op on a nil registry.
func (r *Registry) AdoptCounter(c *Counter, name string, labels ...string) {
	if r != nil {
		r.lookup(name, KindCounter, UnitNone, labels, c, nil)
	}
}

// AdoptGauge is AdoptCounter for a gauge cell.
func (r *Registry) AdoptGauge(g *Gauge, name string, labels ...string) {
	if r != nil {
		r.lookup(name, KindGauge, UnitNone, labels, nil, g)
	}
}

// Histogram returns (creating if needed) the named histogram with the given
// value unit.
func (r *Registry) Histogram(name string, unit Unit, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, unit, labels, nil, nil).hist
}

// MetricSnap is one instrument's state in a Snapshot.
type MetricSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Unit   string            `json:"unit,omitempty"`

	// Counter / gauge value.
	Value int64 `json:"value,omitempty"`

	// Histogram summary (durations in seconds when Unit == "seconds").
	Count int64   `json:"count,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	Max   float64 `json:"max,omitempty"`

	hist *HistSnapshot // bucket-level state, for merging
	unit Unit
}

// Snapshot is a point-in-time copy of a registry (or a merge of several).
type Snapshot struct {
	Metrics []MetricSnap `json:"metrics"`
}

// scale converts a histogram's raw int64 to exposition units.
func (u Unit) scale(v float64) float64 {
	if u == UnitSeconds {
		return v / 1e9
	}
	return v
}

func (u Unit) String() string {
	if u == UnitSeconds {
		return "seconds"
	}
	return ""
}

// fillHistSummary recomputes the exported quantile fields from the
// bucket-level state.
func (ms *MetricSnap) fillHistSummary() {
	h := ms.hist
	ms.Count = h.N
	ms.Mean = ms.unit.scale(h.Mean())
	ms.P50 = ms.unit.scale(float64(h.Quantile(0.50)))
	ms.P90 = ms.unit.scale(float64(h.Quantile(0.90)))
	ms.P99 = ms.unit.scale(float64(h.Quantile(0.99)))
	ms.Max = ms.unit.scale(float64(h.MaxV))
}

// snapMetric copies one instrument.
func snapMetric(m *metric) MetricSnap {
	ms := MetricSnap{Name: m.name, Kind: kindString(m.kind), Unit: m.unit.String(), unit: m.unit}
	if len(m.labels) > 0 {
		ms.Labels = make(map[string]string, len(m.labels)/2)
		for i := 0; i+1 < len(m.labels); i += 2 {
			ms.Labels[m.labels[i]] = m.labels[i+1]
		}
	}
	switch m.kind {
	case KindCounter:
		ms.Value = m.counter.Value()
	case KindGauge:
		ms.Value = m.gauge.Value()
	case KindHistogram:
		h := m.hist.snapshot()
		ms.hist = &h
		ms.fillHistSummary()
	}
	return ms
}

func kindString(k Kind) string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Snapshot returns a copy of every instrument in registration order.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	order := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	for _, m := range order {
		s.Metrics = append(s.Metrics, snapMetric(m))
	}
	return s
}

// Merge folds other into s: counters and gauges with identical name+labels
// sum, histograms merge bucket-by-bucket, unseen metrics append.
func (s *Snapshot) Merge(other *Snapshot) {
	idx := make(map[string]int, len(s.Metrics))
	for i := range s.Metrics {
		idx[snapKey(&s.Metrics[i])] = i
	}
	for i := range other.Metrics {
		om := &other.Metrics[i]
		j, ok := idx[snapKey(om)]
		if !ok {
			cp := *om
			if om.hist != nil {
				h := *om.hist
				cp.hist = &h
			}
			idx[snapKey(&cp)] = len(s.Metrics)
			s.Metrics = append(s.Metrics, cp)
			continue
		}
		dst := &s.Metrics[j]
		switch dst.Kind {
		case "counter", "gauge":
			dst.Value += om.Value
		case "histogram":
			if dst.hist != nil && om.hist != nil {
				dst.hist.Merge(om.hist)
				dst.fillHistSummary()
			}
		}
	}
}

func snapKey(ms *MetricSnap) string {
	if len(ms.Labels) == 0 {
		return ms.Name
	}
	keys := make([]string, 0, len(ms.Labels))
	for k := range ms.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(ms.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, ms.Labels[k])
	}
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. Histograms emit cumulative non-empty buckets plus the +Inf
// bucket, _sum, and _count; duration histograms convert to seconds.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	order := append([]*metric(nil), r.order...)
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	typed := make(map[string]bool)
	header := func(name, typ string) {
		if typed[name] {
			return
		}
		typed[name] = true
		if h := help[name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	}
	series := func(name string, labels []string, extra ...string) string {
		all := append(append([]string(nil), labels...), extra...)
		if len(all) == 0 {
			return name
		}
		return name + "{" + labelString(all) + "}"
	}
	for _, m := range order {
		switch m.kind {
		case KindCounter:
			header(m.name, "counter")
			fmt.Fprintf(w, "%s %d\n", series(m.name, m.labels), m.counter.Value())
		case KindGauge:
			header(m.name, "gauge")
			fmt.Fprintf(w, "%s %d\n", series(m.name, m.labels), m.gauge.Value())
		case KindHistogram:
			header(m.name, "histogram")
			h := m.hist.snapshot()
			var cum int64
			for i := range h.Buckets {
				if h.Buckets[i] == 0 {
					continue
				}
				cum += h.Buckets[i]
				le := m.unit.scale(float64(bucketUpper(i)))
				fmt.Fprintf(w, "%s %d\n", series(m.name+"_bucket", m.labels, "le", formatFloat(le)), cum)
			}
			fmt.Fprintf(w, "%s %d\n", series(m.name+"_bucket", m.labels, "le", "+Inf"), h.N)
			fmt.Fprintf(w, "%s %s\n", series(m.name+"_sum", m.labels), formatFloat(m.unit.scale(float64(h.Sum))))
			fmt.Fprintf(w, "%s %d\n", series(m.name+"_count", m.labels), h.N)
		}
	}
}

// formatFloat renders an exposition float without exponent noise for
// common magnitudes.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// Global collection: kamlbench creates hundreds of short-lived devices
// (one per figure cell) and wants their telemetry merged into the -json
// artifact. When enabled, every NewRegistry is tracked; GlobalSnapshot
// merges them all. Off by default so servers and tests keep registries
// strictly per-device.
var global struct {
	mu      sync.Mutex
	enabled bool
	regs    []*Registry
}

// CollectGlobal enables or disables global registry tracking. Disabling
// also drops the tracked set.
func CollectGlobal(on bool) {
	global.mu.Lock()
	global.enabled = on
	if !on {
		global.regs = nil
	}
	global.mu.Unlock()
}

// ResetGlobal drops the tracked registry set (between experiments) while
// leaving collection enabled.
func ResetGlobal() {
	global.mu.Lock()
	global.regs = nil
	global.mu.Unlock()
}

// GlobalSnapshot merges the snapshots of every tracked registry.
func GlobalSnapshot() *Snapshot {
	global.mu.Lock()
	regs := append([]*Registry(nil), global.regs...)
	global.mu.Unlock()
	s := &Snapshot{}
	for _, r := range regs {
		s.Merge(r.Snapshot())
	}
	return s
}
