// Package obs is the dependency-free observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) rendered in the
// Prometheus text exposition format, a context-carried stage timer for
// per-stage wall-time and throughput accounting, and a shared structured
// logging (log/slog) setup used by every binary.
//
// The package deliberately implements the tiny subset of a metrics client
// the project needs rather than importing one: atomic counters and gauges,
// histograms with fixed upper bounds, and a deterministic text rendering
// whose stable ordering makes golden-file testing possible. Series are
// identified by their full Prometheus series name, label block included:
//
//	reg.Counter(`dnasimd_jobs_shed_total{reason="queue_full"}`, "Jobs shed at admission.")
//
// Everything is safe for concurrent use.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets are cumulative at render
// time (Prometheus `le` semantics); observation is a binary search plus an
// atomic increment.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds, +Inf implied
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	total   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, len(bounds) = +Inf
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DefBuckets is the default latency bucket set (seconds), matching the
// conventional Prometheus client defaults.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplying by factor (> 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return DefBuckets
	}
	out := make([]float64, n)
	b := start
	for i := 0; i < n; i++ {
		out[i] = b
		b *= factor
	}
	return out
}

// metricKind tags a registered series for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// series is one registered time series.
type series struct {
	name   string // full series name, label block included
	family string // name before the label block
	labels string // label block including braces, "" when unlabelled
	kind   metricKind
	help   string

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry holds registered series and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// splitName separates the family name from an optional label block.
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// register adds or fetches a series, enforcing one kind per name. A new
// series is fully initialized by init before it becomes visible: series
// are registered lazily from concurrent paths (per-stage counters from
// every worker), so the payload must be created under the same lock that
// publishes the series — a post-publication nil check would let two
// racing registrants each install their own counter, silently dropping
// one side's increments.
func (r *Registry) register(name, help string, kind metricKind, init func(*series)) *series {
	family, labels := splitName(name)
	if family == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return s
	}
	s := &series{name: name, family: family, labels: labels, kind: kind, help: help}
	init(s)
	r.series[name] = s
	return s
}

// Counter registers (or fetches) a counter series. name may carry a label
// block: `jobs_total{outcome="done"}`.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func(s *series) {
		s.counter = &Counter{}
	}).counter
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func(s *series) {
		s.gauge = &Gauge{}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the natural fit for "current depth of X" metrics already guarded by
// their own synchronization. Re-registering a name keeps the first fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, func(s *series) {
		s.fn = fn
	})
}

// Histogram registers (or fetches) a histogram series with the given
// bucket upper bounds (sorted ascending; +Inf is implicit). Nil or empty
// buckets take DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, func(s *series) {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}).hist
}

// Snapshot returns every scalar series value by full series name.
// Histograms contribute their <name>_count and <name>_sum. Tests use this
// to assert counters without parsing the text rendering.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.series))
	for name, s := range r.series {
		switch s.kind {
		case kindCounter:
			out[name] = float64(s.counter.Value())
		case kindGauge:
			out[name] = s.gauge.Value()
		case kindGaugeFunc:
			out[name] = s.fn()
		case kindHistogram:
			out[s.family+"_count"+s.labels] = float64(s.hist.Count())
			out[s.family+"_sum"+s.labels] = s.hist.Sum()
		}
	}
	return out
}

// formatFloat renders a metric value the way Prometheus text format
// expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelJoin merges a series label block with one extra label (used for
// histogram `le`).
func labelJoin(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4). Output ordering is deterministic:
// families sort by name, series within a family by label block — so the
// rendering is golden-file testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].family != all[j].family {
			return all[i].family < all[j].family
		}
		return all[i].labels < all[j].labels
	})
	lastFamily := ""
	for _, s := range all {
		if s.family != lastFamily {
			lastFamily = s.family
			if s.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.family, s.help); err != nil {
					return err
				}
			}
			typ := "counter"
			switch s.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.family, typ); err != nil {
				return err
			}
		}
		var err error
		switch s.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", s.name, s.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", s.name, formatFloat(s.gauge.Value()))
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", s.name, formatFloat(s.fn()))
		case kindHistogram:
			cum := uint64(0)
			for i, b := range s.hist.bounds {
				cum += s.hist.counts[i].Load()
				le := labelJoin(s.labels, `le="`+formatFloat(b)+`"`)
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", s.family, le, cum); err != nil {
					return err
				}
			}
			cum += s.hist.counts[len(s.hist.bounds)].Load()
			le := labelJoin(s.labels, `le="+Inf"`)
			if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", s.family, le, cum); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", s.family, s.labels, formatFloat(s.hist.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count%s %d\n", s.family, s.labels, s.hist.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
