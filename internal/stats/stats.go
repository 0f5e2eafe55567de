// Package stats provides the statistical substrate shared by the screening,
// detection, and fleet-simulation packages: a running mean, quantiles, and
// the tail test used to decide whether suspect-core reports are
// concentrated on a few cores (a CEE signature, §6 of the paper) or spread
// evenly (a software-bug signature).
package stats

import (
	"math"
	"sort"
)

// Summary holds the running mean of a stream of observations.
type Summary struct {
	n    int
	mean float64
}

// Add records one observation (Welford's update of the mean).
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
}

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles returns the q-quantile (0 <= q <= 1) of xs for each q in qs,
// in one sort, interpolating linearly between order statistics. It does
// not modify xs; with no observations every quantile is NaN.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// LogBucket returns the decade bucket of x: floor(log10 x), with values
// <= 0 mapped to math.MinInt. Used for the "orders of magnitude" spread in
// corruption rates (experiment E3).
func LogBucket(x float64) int {
	if x <= 0 {
		return math.MinInt
	}
	return int(math.Floor(math.Log10(x)))
}

// DecadeSpread returns the number of decades spanned by the positive values
// in xs (max bucket - min bucket + 1), and 0 if fewer than one positive.
func DecadeSpread(xs []float64) int {
	minB, maxB := math.MaxInt, math.MinInt
	any := false
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		b := LogBucket(x)
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
		any = true
	}
	if !any {
		return 0
	}
	return maxB - minB + 1
}

// lnGamma computes the natural log of the Gamma function (Lanczos
// approximation, g=7). Accurate to ~1e-13 over the positive reals, ample
// for the binomial tail below.
func lnGamma(x float64) float64 {
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - lnGamma(1-x)
	}
	g := []float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	x -= 1
	a := g[0]
	t := x + 7.5
	for i := 1; i < len(g); i++ {
		a += g[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// lnChoose returns ln C(n, k).
func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return lnGamma(float64(n)+1) - lnGamma(float64(k)+1) - lnGamma(float64(n-k)+1)
}

// BinomialTailAtLeast returns P[X >= k] for X ~ Binomial(n, p), computed by
// direct summation in log space. This is the concentration test used by the
// detection pipeline: with r reports across c cores, the probability that a
// single core would receive at least k reports under the uniform-spread
// hypothesis is BinomialTailAtLeast(r, 1/c, k).
func BinomialTailAtLeast(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp := math.Log(p)
	lq := math.Log(1 - p)
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += math.Exp(lnChoose(n, i) + float64(i)*lp + float64(n-i)*lq)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Gini returns the Gini coefficient of the non-negative values xs — a
// secondary concentration measure reported by the detection pipeline
// (0 = perfectly even, → 1 = all mass on one element).
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	var cum, sum float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*sum) - (float64(n)+1)/float64(n)
}

// WilsonInterval returns the Wilson score 95% confidence interval for a
// proportion with k successes out of n trials. Used when reporting detected
// CEE incidence (§4: "quantifying their values in practice is difficult").
func WilsonInterval(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959964 // 97.5th percentile of the standard normal
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
