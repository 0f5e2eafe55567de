// Package hist is the benchmark's latency histogram: log-linear buckets
// with a bounded relative error, fine enough for the 1–2 µs reads that
// obs.DefLatencyBuckets (powers of two) cannot resolve.
//
// A value v < 256 has its own bucket. Above that, each power-of-two range
// is cut into 128 equal sub-buckets, so a bucket is at most 1/128 of its
// lower bound wide and its midpoint is within 0.4 % of every value it
// holds. Values are unsigned integers in whatever unit the caller picks
// (the harness records nanoseconds).
package hist

import (
	"math"
	"math/bits"
)

const (
	subBits = 7
	sub     = 1 << subBits
	// buckets covers every uint64: 2*sub exact buckets, then sub per
	// remaining power of two.
	buckets = (64 - subBits + 1) * sub
)

// H is a histogram. The zero value is ready to use. It is not safe for
// concurrent use: give each goroutine its own and Merge them afterwards.
type H struct {
	counts   []uint64
	n        uint64
	min, max uint64
}

func index(v uint64) int {
	if v < 2*sub {
		return int(v)
	}
	e := bits.Len64(v) - (subBits + 1)
	return e<<subBits + int(v>>uint(e))
}

// bounds returns bucket i's lowest value and width.
func bounds(i int) (low, width uint64) {
	if i < 2*sub {
		return uint64(i), 1
	}
	e := uint(i>>subBits) - 1
	return uint64(i&(sub-1)+sub) << e, 1 << e
}

// Record adds one observation.
func (h *H) Record(v uint64) {
	if h.counts == nil {
		h.counts = make([]uint64, buckets)
		h.min = math.MaxUint64
	}
	h.counts[index(v)]++
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge adds every observation of o to h.
func (h *H) Merge(o *H) {
	if o == nil || o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, buckets)
		h.min = math.MaxUint64
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of observations.
func (h *H) Count() uint64 { return h.n }

// Max returns the exact largest observation (0 when empty).
func (h *H) Max() uint64 { return h.max }

// Quantile returns the nearest-rank q-quantile (0 <= q <= 1): the bucket
// holding the ceil(q*n)-th smallest observation, read at that rank's
// position among the bucket's observations (as if they were spread evenly
// over it) and clamped to the exact minimum and maximum. It returns 0 when
// the histogram is empty.
func (h *H) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			low, width := bounds(i)
			within := (float64(rank-(seen-c)) - 0.5) / float64(c)
			v := float64(low) + float64(width-1)*within
			return math.Min(math.Max(v, float64(h.min)), float64(h.max))
		}
	}
	return float64(h.max)
}

// tailLadder is the set of percentiles the harness reports, lowest first,
// each with the share of observations beyond it in parts per 10 000 (kept
// as integers so that 100 observations exactly support p90).
var tailLadder = []struct {
	pct    float64
	beyond uint64
}{{50, 5000}, {90, 1000}, {95, 500}, {99, 100}, {99.9, 10}, {99.99, 1}}

// TailSamples is how many observations must lie beyond a percentile
// before the harness reports it.
const TailSamples = 10

// HighestPercentile returns the highest percentile on the ladder
// 50/90/95/99/99.9/99.99 that still has at least TailSamples observations
// beyond it, and its value. ok is false when even the median does not (fewer
// than 20 observations): such a timing has no percentile worth printing.
func (h *H) HighestPercentile() (pct, value float64, ok bool) {
	for _, p := range tailLadder {
		if h.n*p.beyond < TailSamples*10_000 {
			break
		}
		pct, ok = p.pct, true
	}
	if !ok {
		return 0, 0, false
	}
	return pct, h.Quantile(pct / 100), true
}
