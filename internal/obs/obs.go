// Package obs is the fleet-wide observability layer: a small,
// dependency-free metrics registry (counters, gauges, histograms with
// fixed buckets) plus a structured CEE-lifecycle trace (trace.go).
//
// §4 of the paper argues that the hardest open problem with mercurial
// cores is *measuring* them — detection latency, fraction of cores
// detected, rate of application-visible corruption. Every component of
// the reproduction reports through this package so those measurements
// exist while a run is in flight, not only as end-of-run aggregates.
//
// Design rules:
//
//   - Instruments are lock-free (atomics), so hot paths — parallel fleet
//     shards, screening workers, HTTP handlers — can record concurrently
//     without serializing on the registry.
//   - Snapshot order is deterministic: series sort by (name, label
//     signature), never by map iteration order. Two runs that record the
//     same values render the same text.
//   - A nil *Registry (and a nil *Trace) is a valid no-op sink, so
//     instrumented packages never need nil checks at call sites.
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

// Label is one metric dimension, e.g. {Key: "phase", Value: "merge"}.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored (counters
// are monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram buckets, in seconds — tuned for
// the phase/day wall times the fleet records (sub-millisecond planning up
// to multi-second confession sweeps).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds; an implicit +Inf bucket catches the rest.
type Histogram struct {
	buckets []float64 // sorted upper bounds, no +Inf
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
//
// Write order matters for concurrent scrapes: the total count is
// incremented BEFORE the bucket count. Snapshot reads the buckets before
// the total, so any bucket increment a snapshot observes is preceded by
// its total-count increment — the exposed invariant is count >= Σ buckets
// (the +Inf cumulative bucket), never the reverse. With the old
// bucket-first order a scrape landing between the two increments could
// render cumulative buckets exceeding _count, which Prometheus clients
// reject as a malformed histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.count.Add(1)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// metric kinds.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// series is one (name, labels) instrument. Counters come in two physical
// layouts — plain (c) and per-worker sharded (sc, see sharded.go) — that
// render identically.
type series struct {
	labels []Label
	sig    string
	c      *Counter
	sc     *ShardedCounter
	g      *Gauge
	h      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name    string
	kind    string
	buckets []float64 // histogram families only
	series  map[string]*series
}

// Registry holds a process's metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid no-op sink: every accessor
// returns a detached instrument that records nowhere.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Detached no-op instruments handed out by nil registries. They are real
// instruments (writes are race-safe); their values are simply never read.
var (
	nopCounter   = &Counter{}
	nopGauge     = &Gauge{}
	nopHistogram = &Histogram{buckets: nil, counts: make([]atomic.Uint64, 1)}
)

// signature renders labels into a canonical, sorted key.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// get returns the series for (name, labels), creating it with the given
// kind; it panics if the name is already registered with another kind
// (or, for histograms, other buckets) — mixed kinds under one name would
// corrupt the exposition format.
func (r *Registry) get(name, kind string, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q is a %s, requested as %s", name, f.kind, kind))
	}
	sig := signature(labels)
	s := f.series[sig]
	if s == nil {
		s = &series{labels: sortedLabels(labels), sig: sig}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHist:
			s.h = &Histogram{buckets: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
		}
		f.series[sig] = s
	}
	if kind == kindCounter && s.c == nil {
		panic(fmt.Sprintf("obs: counter %q already registered sharded", name))
	}
	return s
}

func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nopCounter
	}
	return r.get(name, kindCounter, nil, labels).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nopGauge
	}
	return r.get(name, kindGauge, nil, labels).g
}

// Histogram returns the histogram for (name, labels) with DefBuckets,
// creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.HistogramBuckets(name, DefBuckets, labels...)
}

// HistogramBuckets returns the histogram for (name, labels) with explicit
// bucket upper bounds (sorted ascending; +Inf is implicit). Every series
// of one histogram family shares the buckets fixed at first registration.
func (r *Registry) HistogramBuckets(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nopHistogram
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	return r.get(name, kindHist, bs, labels).h
}

// BucketCount is one histogram bucket in a snapshot: the cumulative count
// of observations <= UpperBound (Prometheus "le" semantics).
type BucketCount struct {
	UpperBound float64 // math.Inf(1) for the +Inf bucket
	Count      uint64
}

// SeriesSnapshot is one series' state at snapshot time.
type SeriesSnapshot struct {
	Name   string
	Kind   string // "counter", "gauge", "histogram"
	Labels []Label
	// Value is the counter/gauge value (histograms use the fields below).
	Value float64
	// Buckets, Sum, Count are set for histograms.
	Buckets []BucketCount
	Sum     float64
	Count   uint64
}

// Snapshot returns every series in deterministic order: families sorted
// by name, series within a family sorted by label signature.
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []SeriesSnapshot
	for _, n := range names {
		f := r.families[n]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			snap := SeriesSnapshot{Name: n, Kind: f.kind, Labels: s.labels}
			switch f.kind {
			case kindCounter:
				if s.sc != nil {
					snap.Value = s.sc.Value()
				} else {
					snap.Value = s.c.Value()
				}
			case kindGauge:
				snap.Value = s.g.Value()
			case kindHist:
				// Cumulative counts, Prometheus "le" style. Reading the
				// buckets is not atomic as a set; per-bucket counts are.
				// Buckets are read BEFORE the total count (Observe
				// increments the total first), so count >= Σ buckets holds
				// in every snapshot even mid-Observe.
				var cum uint64
				for i, b := range f.buckets {
					cum += s.h.counts[i].Load()
					snap.Buckets = append(snap.Buckets, BucketCount{UpperBound: b, Count: cum})
				}
				cum += s.h.counts[len(f.buckets)].Load()
				snap.Buckets = append(snap.Buckets, BucketCount{UpperBound: math.Inf(1), Count: cum})
				snap.Sum = s.h.Sum()
				snap.Count = s.h.Count()
			}
			out = append(out, snap)
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), in deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snaps := r.Snapshot()
	var lastName string
	for _, s := range snaps {
		if s.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
			lastName = s.Name
		}
		switch s.Kind {
		case kindCounter, kindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				s.Name, promLabels(s.Labels, "", ""), formatFloat(s.Value)); err != nil {
				return err
			}
		case kindHist:
			for _, b := range s.Buckets {
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatFloat(b.UpperBound)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					s.Name, promLabels(s.Labels, "le", le), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
				s.Name, promLabels(s.Labels, "", ""), formatFloat(s.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
				s.Name, promLabels(s.Labels, "", ""), s.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels renders a label set (plus an optional extra pair, used for
// "le") as a {k="v",...} block, or "" when empty.
func promLabels(labels []Label, extraKey, extraValue string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
