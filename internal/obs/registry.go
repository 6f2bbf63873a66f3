// Package obs is the service's zero-dependency observability layer:
// fixed-bucket latency histograms and counters behind a Registry that
// renders the Prometheus text exposition format, plus the flat
// per-request TimingRecord the service threads through every stage of
// a request (queue wait, coalesce wait, execute, encode, store append)
// and emits as an X-Timing header and an optional CSV timing log.
//
// The design constraint throughout is that recording must be cheap
// enough for the cached-request hot path: histogram buckets are fixed
// at registration so Observe is two atomic adds with no lock and no
// allocation, counters are single atomic adds, and TimingRecord is a
// flat value type that stamps with plain stores. Only registration
// (startup) and rendering (a /metrics scrape or /stats poll) take the
// registry lock.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric at registration.
// Labels are fixed for the metric's lifetime — the hot path never
// formats or hashes them; it holds a pointer to the pre-registered
// instrument.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing counter.
type Counter struct {
	labels []Label
	v      atomic.Uint64
}

// Inc increments the counter by one. Lock-free and allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// funcMetric is a gauge or counter whose value is read at scrape time
// (cache entry counts, uptime, job-state tallies — values some other
// structure already owns and should not be double-counted).
type funcMetric struct {
	labels []Label
	fn     func() float64
}

// family groups the metrics sharing one name: one HELP/TYPE header,
// one member per label set.
type family struct {
	name string
	help string
	kind string // "counter" | "gauge" | "histogram"
	// exactly one of these member lists is populated, matching kind
	hists    []*Histogram
	counters []*Counter
	funcs    []funcMetric
	// bounds are the shared bucket bounds of a histogram family; every
	// member registers with the same slice so label splits stay
	// mergeable for quantiles.
	bounds []float64
}

// Registry owns a set of metric families and renders them in the
// Prometheus text exposition format. Families and members render in
// registration order, so output is deterministic (golden-testable).
// Registration is for startup; it takes a lock and panics on misuse
// (conflicting re-registration, unsorted buckets) exactly like
// flag.Var does, because both indicate a programming error that
// should fail loudly at boot, not at scrape time.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) family(name, help, kind string) *family {
	if r.byName == nil {
		r.byName = map[string]*family{}
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// NewHistogram registers a histogram under name with the given bucket
// upper bounds (seconds, strictly increasing). Members of one family
// must share the same bounds slice contents.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " bounds must be strictly increasing")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	if f.bounds == nil {
		f.bounds = bounds
	} else if !equalBounds(f.bounds, bounds) {
		panic("obs: histogram " + name + " re-registered with different buckets")
	}
	h := newHistogram(bounds, labels)
	f.hists = append(f.hists, h)
	return h
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	c := &Counter{labels: labels}
	f.counters = append(f.counters, c)
	return c
}

// NewGaugeFunc registers a gauge whose value is fn(), read at scrape
// time. fn must be safe for concurrent calls.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge")
	f.funcs = append(f.funcs, funcMetric{labels: labels, fn: fn})
}

// NewCounterFunc registers a counter whose value is fn(), read at
// scrape time — for monotone counts another structure already owns.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	f.funcs = append(f.funcs, funcMetric{labels: labels, fn: fn})
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4): # HELP and # TYPE headers,
// cumulative _bucket series with an le label, _sum and _count for
// histograms. Values are point-in-time atomic loads; a scrape
// concurrent with observations sees each series at some real value.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var buf []byte
	for _, f := range fams {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.help...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind...)
		buf = append(buf, '\n')
		for _, h := range f.hists {
			buf = appendHistogram(buf, f.name, h)
		}
		for _, c := range f.counters {
			buf = appendSeries(buf, f.name, "", c.labels, Label{}, float64(c.Value()))
		}
		for _, fm := range f.funcs {
			buf = appendSeries(buf, f.name, "", fm.labels, Label{}, fm.fn())
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendHistogram renders one histogram member: cumulative buckets
// with le labels, then _sum and _count.
func appendHistogram(buf []byte, name string, h *Histogram) []byte {
	counts := h.snapshot()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		buf = appendSeries(buf, name, "_bucket", h.labels, L("le", le), float64(cum))
	}
	buf = appendSeries(buf, name, "_sum", h.labels, Label{}, h.Sum())
	buf = appendSeries(buf, name, "_count", h.labels, Label{}, float64(cum))
	return buf
}

// appendSeries renders one `name_suffix{labels} value` line. extra is
// an optional trailing label (the bucket le); a zero Label is skipped.
func appendSeries(buf []byte, name, suffix string, labels []Label, extra Label, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if len(labels) > 0 || extra.Name != "" {
		buf = append(buf, '{')
		first := true
		for _, l := range labels {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = appendLabel(buf, l)
		}
		if extra.Name != "" {
			if !first {
				buf = append(buf, ',')
			}
			buf = appendLabel(buf, extra)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = append(buf, formatFloat(v)...)
	buf = append(buf, '\n')
	return buf
}

func appendLabel(buf []byte, l Label) []byte {
	buf = append(buf, l.Name...)
	buf = append(buf, '=', '"')
	// Label values here are registry-owned identifiers (stage names,
	// outcomes); escape the format's three special characters anyway so
	// the renderer never emits an invalid line.
	for i := 0; i < len(l.Value); i++ {
		switch c := l.Value[i]; c {
		case '\\', '"':
			buf = append(buf, '\\', c)
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// formatFloat renders a value the way Prometheus clients do: integers
// without a decimal point, everything else in shortest round-trip
// form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
