package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is a hand-rolled, stdlib-only subset of the Prometheus client
// model: counters, gauges (direct or callback-backed), and cumulative
// histograms, rendered in text exposition format 0.0.4 by WriteText. It
// exists so the debug servers in cmd/palservd and cmd/attestd can serve
// /metrics without pulling in a dependency the container doesn't have.

// Label is one metric label pair.
type Label struct{ Name, Value string }

// LatencyBuckets are the default histogram bounds for stage latencies, in
// seconds. They span sub-microsecond virtual SLAUNCH transitions up to the
// multi-second seal/unseal stalls of 2007 TPMs.
var LatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 25e-3, 0.1, 0.5, 1, 2.5, 10,
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Registry holds metric families in registration order.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

type family struct {
	name, help, kind string
	series           map[string]*series
	order            []string
}

type series struct {
	labels string // rendered {k="v",...} suffix, "" for none

	bits atomic.Uint64  // float64 bits (counter/gauge value)
	fn   func() float64 // callback-backed counter/gauge, nil otherwise
	hist *histo         // histogram state, nil otherwise
	// ex, when set, is sampled at scrape time and rendered as an
	// OpenMetrics-style exemplar (` # {trace_id="..."} value`) after the
	// sample line — how a p99 gauge points at the trace that caused it.
	ex func() (traceID string, value float64, ok bool)
}

type histo struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, +Inf implicit in count
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels builds the canonical sorted {k="v"} suffix.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register finds or creates the (family, series) pair, enforcing that one
// name keeps one type and one help string.
func (r *Registry) register(name, help, kind string, labels []Label) *series {
	if !metricNameRE.MatchString(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l.Name) {
			panic("obs: invalid label name " + strconv.Quote(l.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing value. A nil *Counter is a no-op.
type Counter struct{ s *series }

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.register(name, help, "counter", labels)}
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time — for components that already keep their own monotonic counters.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, "counter", labels).fn = fn
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored (counters
// are monotonic by contract).
func (c *Counter) Add(v float64) {
	if c == nil || c.s == nil || v < 0 {
		return
	}
	addFloat(&c.s.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil || c.s == nil {
		return 0
	}
	return math.Float64frombits(c.s.bits.Load())
}

// Gauge is a value that can go up and down. A nil *Gauge is a no-op.
type Gauge struct{ s *series }

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.register(name, help, "gauge", labels)}
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", labels).fn = fn
}

// GaugeFuncExemplar registers a callback gauge that also carries an
// exemplar: ex is sampled at scrape time and, when it reports ok, the
// sample line is annotated OpenMetrics-style with the trace that exhibited
// the value — the drill-down link from a quantile to a stitchable trace.
func (r *Registry) GaugeFuncExemplar(name, help string, fn func() float64,
	ex func() (traceID string, value float64, ok bool), labels ...Label) {
	if r == nil {
		return
	}
	s := r.register(name, help, "gauge", labels)
	s.fn = fn
	s.ex = ex
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil || g.s == nil {
		return
	}
	addFloat(&g.s.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil || g.s == nil {
		return 0
	}
	return math.Float64frombits(g.s.bits.Load())
}

// Histogram accumulates observations into cumulative buckets. A nil
// *Histogram is a no-op.
type Histogram struct{ s *series }

// Histogram registers a histogram with the given upper bounds (seconds by
// Prometheus convention; +Inf is implicit). Bounds must be sorted
// ascending; nil bounds default to LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not strictly ascending for " + name)
		}
	}
	s := r.register(name, help, "histogram", labels)
	if s.hist == nil {
		s.hist = &histo{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
	}
	return &Histogram{s: s}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil || h.s.hist == nil {
		return
	}
	hs := h.s.hist
	// First bucket whose bound >= v (cumulative counts are summed at
	// exposition time, so each observation lands in exactly one slot).
	i := sort.SearchFloat64s(hs.bounds, v)
	if i < len(hs.counts) {
		hs.counts[i].Add(1)
	}
	hs.count.Add(1)
	addFloat(&hs.sum, v)
}

// addFloat CAS-adds a float64 delta onto atomic bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in Prometheus text exposition format
// 0.0.4: families in registration order, each with # HELP and # TYPE
// headers and its series in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, key := range f.order {
			s := f.series[key]
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	if s.hist != nil {
		hs := s.hist
		cum := uint64(0)
		for i, b := range hs.bounds {
			cum += hs.counts[i].Load()
			if err := histLine(w, f.name, s.labels, formatFloat(b), cum); err != nil {
				return err
			}
		}
		total := hs.count.Load()
		if err := histLine(w, f.name, s.labels, "+Inf", total); err != nil {
			return err
		}
		sum := math.Float64frombits(hs.sum.Load())
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, total)
		return err
	}
	v := math.Float64frombits(s.bits.Load())
	if s.fn != nil {
		v = s.fn()
	}
	if s.ex != nil {
		if trace, exv, ok := s.ex(); ok {
			_, err := fmt.Fprintf(w, "%s%s %s # {trace_id=\"%s\"} %s\n",
				f.name, s.labels, formatFloat(v), escapeLabel(trace), formatFloat(exv))
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(v))
	return err
}

// RegisterTracerMetrics exposes the trace recorder's health on reg so
// scrapers can tell when the ring is eating history: obs_trace_dropped_total
// counts overwritten records (a rising value means the ring is too small
// for the span rate) and obs_trace_ring_size reports its capacity. Safe
// with a nil tracer (both series read zero) and a no-op on a nil registry.
func RegisterTracerMetrics(reg *Registry, t *Tracer) {
	reg.CounterFunc("obs_trace_dropped_total",
		"Trace records overwritten by the bounded ring recorder.",
		func() float64 { return float64(t.Dropped()) })
	reg.GaugeFunc("obs_trace_ring_size",
		"Capacity of the trace ring recorder, in records.",
		func() float64 { return float64(t.Capacity()) })
}

// RegisterLatencyQuantiles exposes a latency distribution that lives
// outside the registry (e.g. a sim.Window) as one gauge family with
// a quantile label, sampled from fn at scrape time. Histograms are the
// right tool when the registry owns the observations; this is for
// components — like the cluster router — that already keep a latency window
// and want its p50/p95/p99/max on /metrics without double bookkeeping. fn
// is called once per series per scrape, so it must be cheap and
// lock-consistent per call (cross-quantile skew between two calls in one
// scrape is acceptable by contract). No-op on a nil registry.
func RegisterLatencyQuantiles(reg *Registry, name, help string, fn func() (p50, p95, p99, max float64)) {
	if reg == nil {
		return
	}
	pick := func(sel func(p50, p95, p99, max float64) float64) func() float64 {
		return func() float64 { return sel(fn()) }
	}
	reg.GaugeFunc(name, help, pick(func(p50, _, _, _ float64) float64 { return p50 }),
		Label{Name: "quantile", Value: "0.5"})
	reg.GaugeFunc(name, help, pick(func(_, p95, _, _ float64) float64 { return p95 }),
		Label{Name: "quantile", Value: "0.95"})
	reg.GaugeFunc(name, help, pick(func(_, _, p99, _ float64) float64 { return p99 }),
		Label{Name: "quantile", Value: "0.99"})
	reg.GaugeFunc(name, help, pick(func(_, _, _, max float64) float64 { return max }),
		Label{Name: "quantile", Value: "1.0"})
}

// histLine writes one cumulative bucket line, splicing le into any
// existing label set.
func histLine(w io.Writer, name, labels, le string, count uint64) error {
	leLabel := `le="` + le + `"`
	if labels == "" {
		labels = "{" + leLabel + "}"
	} else {
		labels = strings.TrimSuffix(labels, "}") + "," + leLabel + "}"
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labels, count)
	return err
}
