// Package telemetry is the dependency-free observability core: sharded
// atomic counters, gauges and log-linear latency histograms behind a
// registry with stable names and labels, plus the flow-tracing substrate
// (trace.go). It follows the same discipline as internal/fault: a disabled
// instrument costs one atomic load on the hot path, so the whole layer can
// stay compiled into the data path and be armed only where an operator
// wants it (lciotd arms it at boot; benchmarks leave it dark).
//
// Two kinds of instruments exist:
//
//   - Recording instruments (Counter, Gauge, Histogram) are written on the
//     hot path. Every record operation first consults the global enable
//     gate; when telemetry is disabled the write is a single atomic load
//     and a branch.
//   - Func-backed instruments (CounterFunc, GaugeFunc) read state the
//     subsystem already maintains — shard delivery counters, link queue
//     depths, WAL segment counts — at snapshot time only. They cost the
//     hot path nothing at all, and they report live values even while the
//     recording gate is off.
//
// Snapshot() serves programmatic reads (lciotd's status line, tests,
// the e2ebench layer metrics); WritePrometheus (prometheus.go) serves the
// /metrics endpoint. Both are built from the same registry, so the log
// line and the scrape can never disagree.
package telemetry

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// gate is the global enable switch consulted by every recording
// instrument. Default off: a process that never calls Enable pays one
// atomic load per instrumented operation and nothing else.
var gate atomic.Bool

// Enable arms the recording instruments (counters, gauges, histograms).
func Enable() { gate.Store(true) }

// Disable disarms the recording instruments. Func-backed instruments keep
// reporting (they read state the subsystems maintain anyway).
func Disable() { gate.Store(false) }

// Enabled reports whether recording instruments are armed.
func Enabled() bool { return gate.Load() }

// --- counters ---

// counterStripes spreads a counter over cache-line-padded cells so
// concurrent writers (shard dispatchers, link goroutines) do not serialise
// on one line. Must be a power of two.
const counterStripes = 8

type counterCell struct {
	v atomic.Uint64
	_ [56]byte // pad to a cache line
}

// stripeIdx picks a stripe from the address of a stack local: goroutines
// live on distinct stacks, so concurrent writers spread across cells
// without any per-goroutine state or runtime hooks.
func stripeIdx() uint {
	var probe byte
	return uint(uintptr(unsafe.Pointer(&probe))>>9) & (counterStripes - 1)
}

// A Counter is a monotonically increasing striped counter.
type Counter struct {
	cells [counterStripes]counterCell
}

// Add increments the counter. One atomic load when telemetry is disabled.
func (c *Counter) Add(n uint64) {
	if c == nil || !gate.Load() {
		return
	}
	c.cells[stripeIdx()].v.Add(n)
}

// Value sums the stripes.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// A Gauge is a point-in-time value (queue depth, buffered records).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. One atomic load when telemetry is disabled.
func (g *Gauge) Set(v int64) {
	if g == nil || !gate.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil || !gate.Load() {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// --- histograms ---

// Log-linear bucketing: histSub linear sub-buckets per power of two, so
// the relative error of any reported quantile is bounded by 1/histSub
// (25%) while the whole range 1ns..~2^42ns (~73min) fits in 168 buckets.
// The record path is lock-free: one count, one sum, one bucket increment.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits
	histOctaves = 42
	histBuckets = (histOctaves - 1) * histSub
)

// histIdx maps a non-negative value to its bucket.
func histIdx(v int64) int {
	if v < histSub {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1
	idx := (o-histSubBits+1)*histSub + int((uint64(v)>>(o-histSubBits))&(histSub-1))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBound is the inclusive lower bound of bucket i (the upper bound of
// bucket i-1); quantiles report the upper edge of the containing bucket.
func histBound(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	o := i/histSub + histSubBits - 1
	return int64(1)<<o | int64(i%histSub)<<(o-histSubBits)
}

// A Histogram is a lock-free log-linear latency histogram (values in
// nanoseconds by convention; the name should carry the unit, e.g.
// sbus_publish_ns).
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64
	// sampleMask, when non-zero, makes Start open a timing window only on
	// every (mask+1)-th call: the hot path pays one atomic add instead of
	// two clock reads on the unsampled calls. Count then reports sampled
	// observations; quantiles stay statistically valid.
	sampleMask uint64
	tick       atomic.Uint64
	buckets    [histBuckets]atomic.Uint64
}

// SampleEvery makes Start time only one call in every (1 << shift); call
// it once right after registration, before the histogram is shared. Use
// it for per-message paths where two clock reads per operation would be
// the dominant instrument cost.
func (h *Histogram) SampleEvery(shift uint) *Histogram {
	if h != nil {
		h.sampleMask = 1<<shift - 1
	}
	return h
}

// Observe records one value. One atomic load when telemetry is disabled.
func (h *Histogram) Observe(v int64) {
	if h == nil || !gate.Load() {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(v))
	h.buckets[histIdx(v)].Add(1)
}

// Start opens a timing window: it returns the zero time (and the matching
// ObserveSince is a no-op) when telemetry is disabled, so an unsampled
// timing costs one atomic load and no clock reads.
func (h *Histogram) Start() time.Time {
	if h == nil || !gate.Load() {
		return time.Time{}
	}
	if h.sampleMask != 0 && h.tick.Add(1)&h.sampleMask != 0 {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed time since a Start that returned a live
// window; it is a no-op for the zero time.
func (h *Histogram) ObserveSince(start time.Time) {
	if start.IsZero() || h == nil {
		return
	}
	h.observe(int64(time.Since(start)))
}

// HistStats summarises a histogram for snapshots. Quantiles are the upper
// edge of the containing log-linear bucket (≤25% relative error).
type HistStats struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
	Max   int64  `json:"max"`
	// Buckets holds the occupied buckets as (upper edge, cumulative count)
	// pairs, sparse and ascending — the shape a Prometheus-native
	// histogram encoding needs (the encoder appends the +Inf bucket).
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// A HistBucket is one occupied histogram bucket: every observation ≤ LE
// (the bucket's inclusive upper edge) counts toward the cumulative Count.
type HistBucket struct {
	LE    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// stats summarises the histogram from one pass over the buckets. Counts
// are read without a barrier against concurrent records, so a quantile can
// lag an in-flight observation — fine for monitoring.
func (h *Histogram) stats() HistStats {
	s := HistStats{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count == 0 {
		return s
	}
	q50 := (s.Count + 1) / 2
	q90 := s.Count - s.Count/10
	q99 := s.Count - s.Count/100
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		edge := histBound(i + 1)
		if cum < q50 && cum+n >= q50 {
			s.P50 = edge
		}
		if cum < q90 && cum+n >= q90 {
			s.P90 = edge
		}
		if cum < q99 && cum+n >= q99 {
			s.P99 = edge
		}
		cum += n
		s.Max = edge
		s.Buckets = append(s.Buckets, HistBucket{LE: edge, Count: cum})
	}
	return s
}

// --- registry ---

// Kind discriminates instrument types in snapshots.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

type metricID struct {
	name   string
	labels string
}

type instrument struct {
	id   metricID
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	// fn, when set, supplies the value at snapshot time (func-backed
	// counter or gauge); monotone reports counter semantics.
	fn       func() float64
	monotone bool
}

// A Registry holds instruments under stable (name, labels) identities.
// Registering an identity twice returns the existing instrument (tests and
// reconnecting subsystems re-register freely); a func-backed registration
// replaces the previous func, so the latest incarnation of a subsystem
// owns its series.
type Registry struct {
	mu   sync.Mutex
	byID map[metricID]*instrument
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[metricID]*instrument{}}
}

// defaultRegistry is the process-wide registry; subsystems register into
// it at construction, Domain.Metrics exposes it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// formatLabels renders alternating key, value pairs canonically
// (`k="v",k2="v2"`, sorted by key). Values are escaped for the Prometheus
// text format.
func formatLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the instrument for id, creating it with make when absent.
// An existing instrument of the same kind is reused; a kind clash (a name
// reused for a different shape) replaces the old series.
func (r *Registry) lookup(name string, kv []string, kind Kind, build func() *instrument) *instrument {
	id := metricID{name: name, labels: formatLabels(kv)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byID[id]; ok && in.kind == kind && in.fn == nil {
		return in
	}
	in := build()
	in.id, in.kind = id, kind
	r.byID[id] = in
	return in
}

// Counter registers (or returns the existing) counter under name and
// alternating label key/value pairs.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	return r.lookup(name, kv, KindCounter, func() *instrument {
		return &instrument{c: &Counter{}}
	}).c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	return r.lookup(name, kv, KindGauge, func() *instrument {
		return &instrument{g: &Gauge{}}
	}).g
}

// Histogram registers (or returns the existing) histogram.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	return r.lookup(name, kv, KindHistogram, func() *instrument {
		return &instrument{h: &Histogram{}}
	}).h
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time (for monotone state a subsystem already maintains — shard delivery
// counts, WAL appends). Re-registering the identity replaces fn.
func (r *Registry) CounterFunc(name string, fn func() float64, kv ...string) {
	id := metricID{name: name, labels: formatLabels(kv)}
	r.mu.Lock()
	r.byID[id] = &instrument{id: id, kind: KindCounter, fn: fn, monotone: true}
	r.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot time
// (queue depths, segment counts, backlog sizes).
func (r *Registry) GaugeFunc(name string, fn func() float64, kv ...string) {
	id := metricID{name: name, labels: formatLabels(kv)}
	r.mu.Lock()
	r.byID[id] = &instrument{id: id, kind: KindGauge, fn: fn}
	r.mu.Unlock()
}

// A Metric is one series in a snapshot.
type Metric struct {
	Name   string     `json:"name"`
	Labels string     `json:"labels,omitempty"`
	Kind   Kind       `json:"kind"`
	Value  float64    `json:"value"`
	Hist   *HistStats `json:"hist,omitempty"`
}

// Snapshot reads every instrument, sorted by name then labels. Func-backed
// instruments are invoked here (and only here), outside the registry lock
// so a slow probe cannot block registrations.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	ins := make([]*instrument, 0, len(r.byID))
	for _, in := range r.byID {
		ins = append(ins, in)
	}
	r.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].id.name != ins[j].id.name {
			return ins[i].id.name < ins[j].id.name
		}
		return ins[i].id.labels < ins[j].id.labels
	})
	out := make([]Metric, 0, len(ins))
	for _, in := range ins {
		m := Metric{Name: in.id.name, Labels: in.id.labels, Kind: in.kind}
		switch {
		case in.fn != nil:
			m.Value = in.fn()
		case in.c != nil:
			m.Value = float64(in.c.Value())
		case in.g != nil:
			m.Value = float64(in.g.Value())
		case in.h != nil:
			st := in.h.stats()
			m.Hist = &st
			m.Value = float64(st.Count)
		}
		out = append(out, m)
	}
	return out
}

// Label extracts one label's value from a snapshot metric's canonical
// label string, undoing the escaping formatLabels applied; it returns ""
// when the label is absent.
func (m Metric) Label(key string) string {
	rest := m.Labels
	for rest != "" {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			return ""
		}
		k := rest[:eq]
		rest = rest[eq+2:]
		// Walk to the closing quote, unescaping as we go.
		var b strings.Builder
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
			i++
		}
		if k == key {
			return b.String()
		}
		rest = rest[i:]
		if strings.HasPrefix(rest, `",`) {
			rest = rest[2:]
		} else {
			return ""
		}
	}
	return ""
}

// Find locates a series in a snapshot by name and label pairs.
func Find(snap []Metric, name string, kv ...string) (Metric, bool) {
	labels := formatLabels(kv)
	for _, m := range snap {
		if m.Name == name && m.Labels == labels {
			return m, true
		}
	}
	return Metric{}, false
}

// Package-level helpers on the default registry.

// NewCounter registers a counter in the default registry.
func NewCounter(name string, kv ...string) *Counter { return defaultRegistry.Counter(name, kv...) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name string, kv ...string) *Gauge { return defaultRegistry.Gauge(name, kv...) }

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name string, kv ...string) *Histogram {
	return defaultRegistry.Histogram(name, kv...)
}

// RegisterCounterFunc registers a func-backed counter in the default
// registry.
func RegisterCounterFunc(name string, fn func() float64, kv ...string) {
	defaultRegistry.CounterFunc(name, fn, kv...)
}

// RegisterGaugeFunc registers a func-backed gauge in the default registry.
func RegisterGaugeFunc(name string, fn func() float64, kv ...string) {
	defaultRegistry.GaugeFunc(name, fn, kv...)
}

// Snapshot reads the default registry.
func Snapshot() []Metric { return defaultRegistry.Snapshot() }
