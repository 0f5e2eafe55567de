package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("kind", "crash"))
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("requests_total", L("kind", "crash")); again != c {
		t.Fatal("same (name, labels) returned a different counter")
	}
	if other := r.Counter("requests_total", L("kind", "mce")); other == c {
		t.Fatal("different labels shared a counter")
	}

	g := r.Gauge("active")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestLabelOrderDoesNotSplitSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("a", "1"), L("b", "2"))
	b := r.Counter("x", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order split one series into two")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" {
		t.Fatalf("snapshot = %+v", snap)
	}
	// le semantics: 1 lands in the le="1" bucket; cumulative counts.
	want := []uint64{2, 3, 4, 5}
	for i, b := range snap[0].Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.UpperBound, b.Count, want[i])
		}
	}
	if !math.IsInf(snap[0].Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket is not +Inf")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() []SeriesSnapshot {
		r := NewRegistry()
		// Register in scrambled order; snapshot must not care.
		r.Counter("zebra").Inc()
		r.Gauge("apple", L("b", "2")).Set(1)
		r.Gauge("apple", L("a", "1")).Set(2)
		r.Counter("mango", L("k", "v")).Add(3)
		return r.Snapshot()
	}
	a, b := build(), build()
	if len(a) != 4 {
		t.Fatalf("snapshot has %d series", len(a))
	}
	names := []string{a[0].Name, a[1].Name, a[2].Name, a[3].Name}
	if names[0] != "apple" || names[1] != "apple" || names[2] != "mango" || names[3] != "zebra" {
		t.Fatalf("family order = %v", names)
	}
	if a[0].Labels[0].Key != "a" || a[1].Labels[0].Key != "b" {
		t.Fatalf("series order within family = %+v, %+v", a[0].Labels, a[1].Labels)
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Value != b[i].Value {
			t.Fatalf("snapshots diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("reports_total", L("kind", "crash")).Add(4)
	r.Counter("reports_total", L("kind", "mce")).Inc()
	r.Gauge("suspects").Set(2)
	h := r.HistogramBuckets("phase_seconds", []float64{0.1, 1}, L("phase", "merge"))
	h.Observe(0.05)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# TYPE phase_seconds histogram
phase_seconds_bucket{phase="merge",le="0.1"} 1
phase_seconds_bucket{phase="merge",le="1"} 2
phase_seconds_bucket{phase="merge",le="+Inf"} 2
phase_seconds_sum{phase="merge"} 0.55
phase_seconds_count{phase="merge"} 2
# TYPE reports_total counter
reports_total{kind="crash"} 4
reports_total{kind="mce"} 1
# TYPE suspects gauge
suspects 2
`
	if got != want {
		t.Fatalf("prometheus text:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("d", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `d="a\"b\\c\nd"`) {
		t.Fatalf("escaping wrong: %q", b.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m").Inc()
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m")
}

func TestNilRegistryAndTraceAreNoOpSinks(t *testing.T) {
	var r *Registry
	r.Counter("c", L("k", "v")).Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(2)
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry wrote %q (err %v)", b.String(), err)
	}

	var tr *Trace
	tr.Emit(TraceEvent{Event: EventQuarantine})
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil trace recorded something")
	}
	if err := tr.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil trace wrote %q (err %v)", b.String(), err)
	}
}

// TestConcurrentInstruments drives every instrument kind from many
// goroutines; run under -race this is the registry's concurrency
// contract.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace()
	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c", L("worker", string(rune('a'+g)))).Inc()
				r.Counter("shared").Add(0.5)
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i) / 100)
				tr.Emit(TraceEvent{Day: i, Event: EventFirstSignal})
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*iters*0.5 {
		t.Fatalf("shared counter = %v", got)
	}
	if got := r.Histogram("h").Count(); got != goroutines*iters {
		t.Fatalf("histogram count = %d", got)
	}
	if tr.Len() != goroutines*iters {
		t.Fatalf("trace len = %d", tr.Len())
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := NewTrace()
	events := []TraceEvent{
		{Day: 0, TimeSec: 0, Machine: "m00001", Core: 3, Event: EventDefectPresent,
			FirstActiveSec: 86400.123456789},
		{Day: 1, TimeSec: 86400, Machine: "m00001", Core: 3, Event: EventDefectActivated,
			FirstActiveSec: 86400.123456789},
		{Day: 2, TimeSec: 172800, Machine: "m00001", Core: 3, Event: EventFirstSignal, Kind: "crash"},
		{Day: 3, TimeSec: 259200, Machine: "m00001", Core: 3, Event: EventSuspectNominated,
			Reports: 4, PValue: 2.5e-17},
		{Day: 3, TimeSec: 259200, Machine: "m00001", Core: 3, Event: EventConfession,
			Confirmed: true, Detail: "suspect"},
		{Day: 3, TimeSec: 259200, Machine: "m00001", Core: 3, Event: EventQuarantine,
			Mode: "core-removal"},
		{Day: 33, TimeSec: 2851200, Machine: "m00001", Core: 3, Event: EventRelease},
		{Day: 33, TimeSec: 2851200, Machine: "m00001", Core: 3, Event: EventRepair},
	}
	for _, ev := range events {
		tr.Emit(ev)
	}
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != len(events) {
		t.Fatalf("JSONL has %d lines, want %d", lines, len(events))
	}
	back, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d of %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d diverged:\n%+v\n%+v", i, back[i], events[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"day\":1}\nnot json\n")); err == nil {
		t.Fatal("garbage line parsed")
	}
}
