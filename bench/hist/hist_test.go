package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exact is the nearest-rank quantile of a sorted sample — the reference
// the histogram is checked against.
func exact(sorted []uint64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestQuantileWithinOnePercentOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func() uint64{
		// 1–2 µs reads in ns: the range obs.DefLatencyBuckets cannot split.
		"reads-ns": func() uint64 { return 1000 + uint64(rng.Intn(1000)) },
		// A long-tailed latency spanning six decades.
		"lognormal": func() uint64 { return uint64(math.Exp(rng.NormFloat64()*2 + 10)) },
		"small":     func() uint64 { return uint64(rng.Intn(300)) },
		"huge":      func() uint64 { return 1<<40 + uint64(rng.Int63n(1<<50)) },
	}
	for name, draw := range shapes {
		var h H
		sample := make([]uint64, 50_000)
		for i := range sample {
			sample[i] = draw()
			h.Record(sample[i])
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want, got := exact(sample, q), h.Quantile(q)
			if diff := math.Abs(got - want); diff > 0.01*want && diff > 0.5 {
				t.Errorf("%s q=%v: got %v, exact %v (%.2f%% off)", name, q, got, want, 100*diff/want)
			}
		}
		if h.Max() != sample[len(sample)-1] || h.Count() != uint64(len(sample)) {
			t.Errorf("%s: max/count %d/%d", name, h.Max(), h.Count())
		}
	}
}

func TestBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 255, 256, 257, 511, 512, 1 << 20, 1<<20 + 1<<13, math.MaxUint64} {
		i := index(v)
		if i < prev || i >= buckets {
			t.Fatalf("index(%d) = %d after %d (buckets %d)", v, i, prev, buckets)
		}
		low, width := bounds(i)
		if v < low || v-low >= width {
			t.Fatalf("value %d outside its bucket [%d, %d+%d)", v, low, low, width)
		}
		prev = i
	}
}

func TestMergeEqualsRecordingTogether(t *testing.T) {
	var a, b, all H
	for v := uint64(1); v < 5000; v += 7 {
		a.Record(v)
		all.Record(v)
	}
	for v := uint64(100_000); v < 200_000; v += 13 {
		b.Record(v)
		all.Record(v)
	}
	var merged H
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(nil)
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if merged.Quantile(q) != all.Quantile(q) {
			t.Errorf("q=%v: merged %v, together %v", q, merged.Quantile(q), all.Quantile(q))
		}
	}
	if merged.Count() != all.Count() || merged.Max() != all.Max() {
		t.Errorf("count/max differ: %d/%d vs %d/%d", merged.Count(), merged.Max(), all.Count(), all.Max())
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		pct  float64
		okay bool
	}{
		{19, 0, false}, // 9.5 beyond the median
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10_000, 99.9, true},
		{100_000, 99.99, true},
	}
	for _, c := range cases {
		var h H
		sample := make([]uint64, c.n)
		for i := range sample {
			sample[i] = uint64(1000 + i)
			h.Record(sample[i])
		}
		pct, v, ok := h.HighestPercentile()
		if ok != c.okay || pct != c.pct {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.pct, c.okay)
			continue
		}
		if !ok {
			continue
		}
		want := exact(sample, pct/100)
		if math.Abs(v-want) > 0.01*want {
			t.Errorf("n=%d p%v: value %v, exact %v", c.n, pct, v, want)
		}
		if beyond := c.n - int(math.Ceil(float64(c.n)*pct/100-1e-9)); beyond < TailSamples {
			t.Errorf("n=%d p%v has only %d samples beyond it", c.n, pct, beyond)
		}
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h H
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Error("empty histogram should read as zeros")
	}
	if _, _, ok := h.HighestPercentile(); ok {
		t.Error("empty histogram has no reportable percentile")
	}
}
