package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatal("empty summary not zero")
	}
	s.Add(-3)
	if s.Mean() != -3 {
		t.Fatal("single-observation summary wrong")
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(5)
	if s.Mean() != 0 {
		t.Fatalf("mean over negatives = %v", s.Mean())
	}
}

func TestQuantile(t *testing.T) {
	got := Quantiles([]float64{1, 2, 3, 4, 5}, 0, 1, 0.5, 0.25)
	if want := []float64{1, 5, 3, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Quantiles = %v, want %v", got, want)
	}
	// Interpolation between order statistics.
	if q := Quantiles([]float64{0, 10}, 0.5)[0]; q != 5 {
		t.Fatalf("interpolated median = %v", q)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantiles(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantiles mutated input: %v", xs)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	qs := Quantiles(xs, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Fatalf("Quantiles = %v", qs)
	}
	for _, v := range Quantiles(nil, 0.5) {
		if !math.IsNaN(v) {
			t.Fatal("empty Quantiles should be NaN")
		}
	}
}

func TestLogBucket(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{1, 0}, {9.99, 0}, {10, 1}, {0.1, -1}, {0.05, -2}, {1e6, 6},
	}
	for _, c := range cases {
		if got := LogBucket(c.x); got != c.want {
			t.Fatalf("LogBucket(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if LogBucket(0) != math.MinInt || LogBucket(-1) != math.MinInt {
		t.Fatal("non-positive LogBucket should be MinInt")
	}
}

func TestDecadeSpread(t *testing.T) {
	if d := DecadeSpread([]float64{1e-6, 1e-2}); d != 5 {
		t.Fatalf("spread = %d, want 5", d)
	}
	if d := DecadeSpread([]float64{3, 5}); d != 1 {
		t.Fatalf("same-decade spread = %d", d)
	}
	if d := DecadeSpread(nil); d != 0 {
		t.Fatalf("empty spread = %d", d)
	}
	if d := DecadeSpread([]float64{0, -1}); d != 0 {
		t.Fatalf("non-positive spread = %d", d)
	}
}

func TestLnGammaKnownValues(t *testing.T) {
	// Gamma(n) = (n-1)!
	cases := []struct {
		x, want float64
	}{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{5, math.Log(24)},
		{11, math.Log(3628800)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
	}
	for _, c := range cases {
		if got := lnGamma(c.x); !almostEqual(got, c.want, 1e-10) {
			t.Fatalf("lnGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestBinomialTail(t *testing.T) {
	// Fair coin, 10 flips: P[X >= 5] ≈ 0.623046875.
	if p := BinomialTailAtLeast(10, 0.5, 5); !almostEqual(p, 0.623046875, 1e-9) {
		t.Fatalf("tail = %v", p)
	}
	if p := BinomialTailAtLeast(10, 0.5, 0); p != 1 {
		t.Fatalf("k=0 tail = %v", p)
	}
	if p := BinomialTailAtLeast(10, 0.5, 11); p != 0 {
		t.Fatalf("k>n tail = %v", p)
	}
	if p := BinomialTailAtLeast(10, 0, 1); p != 0 {
		t.Fatalf("p=0 tail = %v", p)
	}
	if p := BinomialTailAtLeast(10, 1, 10); p != 1 {
		t.Fatalf("p=1 tail = %v", p)
	}
	// P[X >= 10] with p=0.5 is 2^-10.
	if p := BinomialTailAtLeast(10, 0.5, 10); !almostEqual(p, math.Pow(0.5, 10), 1e-12) {
		t.Fatalf("all-successes tail = %v", p)
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); !almostEqual(g, 0, 1e-12) {
		t.Fatalf("even Gini = %v", g)
	}
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Fatalf("concentrated Gini = %v, want high", g)
	}
	if g2 := Gini(nil); g2 != 0 {
		t.Fatalf("empty Gini = %v", g2)
	}
	if g3 := Gini([]float64{0, 0}); g3 != 0 {
		t.Fatalf("all-zero Gini = %v", g3)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(5, 10)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v,%v] should contain 0.5", lo, hi)
	}
	lo, hi = WilsonInterval(0, 100)
	if lo != 0 || hi > 0.05 {
		t.Fatalf("zero-successes interval [%v,%v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty interval [%v,%v]", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100)
	if hi != 1 || lo < 0.95 {
		t.Fatalf("all-successes interval [%v,%v]", lo, hi)
	}
}

func TestQuickBinomialTailMonotoneInK(t *testing.T) {
	f := func(n uint8, pRaw uint16) bool {
		nn := int(n%50) + 1
		p := float64(pRaw) / 65536
		prev := 1.0
		for k := 0; k <= nn+1; k++ {
			cur := BinomialTailAtLeast(nn, p, k)
			if cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	r := xrand.New(99)
	f := func(n uint8, qRaw uint16) bool {
		m := int(n%100) + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		q := float64(qRaw) / 65536
		v := Quantiles(xs, q)[0]
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGiniRange(t *testing.T) {
	r := xrand.New(7)
	f := func(n uint8) bool {
		m := int(n%50) + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		g := Gini(xs)
		return g >= -1e-9 && g < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
