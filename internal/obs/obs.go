// Package obs is the observability layer of the reproduction: cheap,
// allocation-light counters, gauges and latency histograms that the
// decision path (engine, transport, agent runtime) updates on every
// request, exposed in Prometheus text format.
//
// The design goals, in order:
//
//   - Hot-path cost must be a handful of atomic operations. Metrics
//     handles are resolved once at component construction; Observe and
//     Inc never allocate, never lock, and never format strings.
//   - Isolation when wanted, aggregation by default. Every component
//     defaults to the process-wide Default registry (what cmd/stacd
//     serves), but accepts an injected Registry so tests can reconcile
//     one run's metrics against its audit trail exactly.
//   - No dependencies beyond the standard library: the exposition is a
//     small subset of the Prometheus text format, enough for a real
//     scrape.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative to keep the counter
// monotonic; this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (e.g. in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64 — budget seconds, burn
// rates and other fractional quantities the int64 Gauge cannot carry.
// Stores and loads are single atomic operations on the bit pattern.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram records a latency distribution in fixed buckets. The sum
// is kept in integer nanoseconds so Observe is a few atomic adds with
// no floating-point CAS loop.
type Histogram struct {
	bounds  []float64 // bucket upper bounds in seconds, ascending
	buckets []atomic.Int64
	inf     atomic.Int64
	sumNs   atomic.Int64
	count   atomic.Int64
	// ex, when non-nil, retains per-bucket tail-latency exemplars (see
	// exemplar.go). Attached once by EnableExemplars.
	ex atomic.Pointer[exemplarStore]
}

// DefBuckets spans 1µs–5s, covering an in-process decision (µs) up to
// a faulted multi-retry network hop (s).
var DefBuckets = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 500e-6,
	2.5e-3, 10e-3, 50e-3, 250e-3, 1, 5,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	placed := false
	for i, b := range h.bounds {
		if s <= b {
			h.buckets[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// metric kinds for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric family with per-label-set children.
type family struct {
	name, help, kind string
	children         map[string]any // label string -> *Counter|*Gauge|*Histogram
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry. Registration is get-or-create: asking twice for the
// same (name, labels) returns the same handle, so several components
// may share one registry (their updates aggregate).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every component falls back to
// when none is injected; cmd/stacd serves it on -metrics-addr.
var Default = NewRegistry()

// Label renders one label pair for the labels argument of Counter,
// Gauge and Histogram. Join several with Labels.
func Label(key, value string) string {
	return key + `="` + escapeLabel(value) + `"`
}

// Labels joins rendered label pairs.
func Labels(pairs ...string) string { return strings.Join(pairs, ",") }

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP line per the exposition format: only the
// backslash and newline are special there (quotes are fine).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) child(name, labels, help, kind string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]any)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	c, ok := f.children[labels]
	if !ok {
		c = mk()
		f.children[labels] = c
	}
	return c
}

// Counter returns (registering if needed) the counter name{labels}.
// labels is a pre-rendered list built with Label/Labels ("" for none).
func (r *Registry) Counter(name, labels, help string) *Counter {
	return r.child(name, labels, help, kindCounter, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns (registering if needed) the gauge name{labels}.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	return r.child(name, labels, help, kindGauge, func() any { return new(Gauge) }).(*Gauge)
}

// FloatGauge returns (registering if needed) the float gauge
// name{labels}. A family is either integer or float gauges, never a
// mix: the first registration fixes the child type.
func (r *Registry) FloatGauge(name, labels, help string) *FloatGauge {
	return r.child(name, labels, help, kindGauge, func() any { return new(FloatGauge) }).(*FloatGauge)
}

// FloatGaugeValue returns the value of float gauge name{labels}, or 0.
func (r *Registry) FloatGaugeValue(name, labels string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok && f.kind == kindGauge {
		if g, ok := f.children[labels].(*FloatGauge); ok {
			return g.Value()
		}
	}
	return 0
}

// Histogram returns (registering if needed) the histogram name{labels}
// with the given bucket bounds (nil for DefBuckets). Bounds are fixed
// by the first registration.
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	return r.child(name, labels, help, kindHistogram, func() any { return newHistogram(bounds) }).(*Histogram)
}

// CounterValue returns the value of counter name{labels}, or 0 when it
// was never registered — convenient for tests and reconciliation.
func (r *Registry) CounterValue(name, labels string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok && f.kind == kindCounter {
		if c, ok := f.children[labels].(*Counter); ok {
			return c.Value()
		}
	}
	return 0
}

// GaugeValue returns the value of gauge name{labels}, or 0.
func (r *Registry) GaugeValue(name, labels string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok && f.kind == kindGauge {
		if g, ok := f.children[labels].(*Gauge); ok {
			return g.Value()
		}
	}
	return 0
}

// SumCounters sums a counter family across all label sets (e.g. every
// denial reason of stac_authz_denied_total).
func (r *Registry) SumCounters(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	if f, ok := r.families[name]; ok && f.kind == kindCounter {
		for _, c := range f.children {
			total += c.(*Counter).Value()
		}
	}
	return total
}

// HistogramCount returns the observation count of histogram
// name{labels}, or 0.
func (r *Registry) HistogramCount(name, labels string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok && f.kind == kindHistogram {
		if h, ok := f.children[labels].(*Histogram); ok {
			return h.Count()
		}
	}
	return 0
}

// snapshot returns the families sorted by name with their children
// sorted by label string, for deterministic exposition.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func sortedLabels(children map[string]any) []string {
	out := make([]string, 0, len(children))
	for l := range children {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func series(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for one
// bucket line ("" when the bucket retains none).
func exemplarSuffix(exemplars map[int]Exemplar, bucket int) string {
	e, ok := exemplars[bucket]
	if !ok {
		return ""
	}
	labels := Label("decision_id", e.DecisionID)
	if e.TraceID != "" {
		labels = Labels(labels, Label("trace_id", e.TraceID))
	}
	return fmt.Sprintf(" # {%s} %s %.3f", labels, fmtFloat(e.Value), float64(e.Time.UnixMilli())/1e3)
}

// WritePrometheus renders every family of every registry in the
// Prometheus text exposition format. Registries must not share family
// names (components sharing a registry share families instead).
func WritePrometheus(w io.Writer, regs ...*Registry) {
	for _, r := range regs {
		for _, f := range r.snapshot() {
			if f.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
			for _, labels := range sortedLabels(f.children) {
				switch m := f.children[labels].(type) {
				case *Counter:
					fmt.Fprintf(w, "%s %d\n", series(f.name, labels, ""), m.Value())
				case *Gauge:
					fmt.Fprintf(w, "%s %d\n", series(f.name, labels, ""), m.Value())
				case *FloatGauge:
					fmt.Fprintf(w, "%s %s\n", series(f.name, labels, ""), fmtFloat(m.Value()))
				case *Histogram:
					// Exemplared histograms render an OpenMetrics-style
					// "# {...} value ts" suffix on buckets that retain one.
					exemplars := map[int]Exemplar{}
					for _, e := range m.Exemplars() {
						exemplars[e.Bucket] = e
					}
					var cum int64
					for i, b := range m.bounds {
						cum += m.buckets[i].Load()
						fmt.Fprintf(w, "%s %d%s\n",
							series(f.name+"_bucket", labels, `le="`+fmtFloat(b)+`"`), cum,
							exemplarSuffix(exemplars, i))
					}
					cum += m.inf.Load()
					fmt.Fprintf(w, "%s %d%s\n", series(f.name+"_bucket", labels, `le="+Inf"`), cum,
						exemplarSuffix(exemplars, len(m.bounds)))
					fmt.Fprintf(w, "%s %s\n", series(f.name+"_sum", labels, ""), fmtFloat(m.Sum().Seconds()))
					fmt.Fprintf(w, "%s %d\n", series(f.name+"_count", labels, ""), m.Count())
				}
			}
		}
	}
}

// WriteTable renders a plain-text summary table of every non-empty
// metric (histograms as count and total seconds) — the end-of-run
// stats view of cmd/coalition-sim.
func WriteTable(w io.Writer, regs ...*Registry) {
	type row struct{ name, value string }
	var rows []row
	width := 0
	add := func(name, value string) {
		if len(name) > width {
			width = len(name)
		}
		rows = append(rows, row{name, value})
	}
	for _, r := range regs {
		for _, f := range r.snapshot() {
			for _, labels := range sortedLabels(f.children) {
				n := series(f.name, labels, "")
				switch m := f.children[labels].(type) {
				case *Counter:
					if v := m.Value(); v != 0 {
						add(n, strconv.FormatInt(v, 10))
					}
				case *Gauge:
					if v := m.Value(); v != 0 {
						add(n, strconv.FormatInt(v, 10))
					}
				case *FloatGauge:
					if v := m.Value(); v != 0 {
						add(n, fmtFloat(v))
					}
				case *Histogram:
					if c := m.Count(); c != 0 {
						add(n, fmt.Sprintf("n=%d total=%.6gs avg=%.6gs",
							c, m.Sum().Seconds(), m.Sum().Seconds()/float64(c)))
					}
				}
			}
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s  %s\n", width, r.name, r.value)
	}
}

// Handler serves the registries in Prometheus text format — mount it
// at /metrics.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, regs...)
	})
}
