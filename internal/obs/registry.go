package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricKind discriminates the registry's family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one named metric with a fixed label schema and one child
// per label-value combination.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64      // histograms only
	fn      func() float64 // gauge funcs only

	mu       sync.Mutex
	children map[string]any // label-value key -> *Counter | *Gauge | *Histogram
}

// labelKey joins label values into a child map key. The separator
// cannot appear in exposition output, and collisions only matter
// within one family, so a simple join suffices.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// child returns (creating if needed) the family's child for the given
// label values.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c any
	switch f.kind {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	case kindHistogram:
		c = newHistogram(f.buckets)
	default:
		panic("obs: func-valued metrics have no children")
	}
	f.children[key] = c
	return c
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Families are get-or-create: registering the
// same name twice returns the existing family, provided the type and
// label schema match (a mismatch panics — it is a wiring bug, not a
// runtime condition).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register get-or-creates a family, enforcing schema consistency.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64, fn func() float64) *family {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		fn:       fn,
		children: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// Counter returns the registry's unlabeled counter with this name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil, nil).child(nil).(*Counter)
}

// Gauge returns the registry's unlabeled gauge with this name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil, nil).child(nil).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for state that already lives elsewhere and would otherwise
// need a copy kept in sync.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, nil, nil, fn)
}

// CounterFunc registers a counter whose value is computed by fn at
// scrape time. fn must be monotone non-decreasing over the process
// lifetime — the exposition TYPE is counter, and consumers apply
// rate() to it. It exists for totals that are kept in sharded or
// striped form on a hot path and would otherwise need a second,
// contended accumulator solely for the exposition.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounterFunc, nil, nil, fn)
}

// Histogram returns the registry's unlabeled histogram with this
// name. buckets are the upper bounds (see ExpBuckets); they are fixed
// at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, buckets, nil).child(nil).(*Histogram)
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// CounterVec returns the registry's counter family with this name and
// label schema.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil, nil)}
}

// With returns the child counter for the given label values (one per
// label, in schema order).
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// CodeCounter counts one route's requests on a (route, code) counter
// family. The children of the hot codes — what a server answers at
// steady state — are resolved once, because label lookup allocates
// and a serving path must not; other codes look theirs up per request.
type CodeCounter struct {
	v     *CounterVec
	route string
	codes []int
	hot   []*Counter
}

// Codes returns route's CodeCounter with the children of the hot
// codes resolved. v's labels must be (route, code).
func (v *CounterVec) Codes(route string, hot ...int) *CodeCounter {
	c := &CodeCounter{v: v, route: route, codes: hot}
	for _, code := range hot {
		c.hot = append(c.hot, v.With(route, strconv.Itoa(code)))
	}
	return c
}

// Inc counts one request answered with code.
func (c *CodeCounter) Inc(code int) {
	for i, h := range c.codes {
		if h == code {
			c.hot[i].Inc()
			return
		}
	}
	c.v.With(c.route, strconv.Itoa(code)).Inc()
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the registry's gauge family with this name and
// label schema.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a histogram family partitioned by labels; every
// child shares the family's bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec returns the registry's histogram family with this
// name, bucket layout and label schema.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels, buckets, nil)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// FamilyDesc describes one registered family — the metrics contract
// the golden exposition test pins.
type FamilyDesc struct {
	Name   string
	Type   string
	Labels []string
}

// Describe returns every registered family sorted by name.
func (r *Registry) Describe() []FamilyDesc {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyDesc, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyDesc{
			Name:   f.name,
			Type:   f.kind.String(),
			Labels: append([]string(nil), f.labels...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value for exposition.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a HELP line.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelPairs renders {k="v",...} for the given values plus optional
// extra pairs (the histogram "le" label); empty when there are none.
func labelPairs(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra[i], escapeLabel(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteTo renders the registry in the Prometheus text format:
// families sorted by name, children sorted by label values, HELP and
// TYPE lines always present so the exported schema is visible even
// before a labeled family has its first child.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	cw := &countingWriter{w: w}
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(cw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.kind.String())
		if f.kind == kindGaugeFunc || f.kind == kindCounterFunc {
			fmt.Fprintf(cw, "%s %s\n", f.name, formatValue(f.fn()))
			continue
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for i, key := range keys {
			var values []string
			if key != "" || len(f.labels) > 0 {
				values = strings.Split(key, "\x1f")
			}
			switch c := children[i].(type) {
			case *Counter:
				fmt.Fprintf(cw, "%s%s %s\n", f.name, labelPairs(f.labels, values), formatValue(c.Value()))
			case *Gauge:
				fmt.Fprintf(cw, "%s%s %s\n", f.name, labelPairs(f.labels, values), formatValue(c.Value()))
			case *Histogram:
				cum, total := c.snapshot()
				for b, upper := range c.upper {
					fmt.Fprintf(cw, "%s_bucket%s %d\n", f.name,
						labelPairs(f.labels, values, "le", formatValue(upper)), cum[b])
				}
				fmt.Fprintf(cw, "%s_bucket%s %d\n", f.name,
					labelPairs(f.labels, values, "le", "+Inf"), total)
				fmt.Fprintf(cw, "%s_sum%s %s\n", f.name, labelPairs(f.labels, values), formatValue(c.Sum()))
				fmt.Fprintf(cw, "%s_count%s %d\n", f.name, labelPairs(f.labels, values), total)
			}
		}
	}
	return cw.n, cw.err
}

// countingWriter tracks bytes written and the first error, so the
// exposition loop doesn't have to check every Fprintf.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// Handler serves the registry at GET /metrics in the text exposition
// format. Non-GET methods get 405 — the same contract the mirror's
// other read-only endpoints follow.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
