package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		t.Fatal("zero seed left all-zero state")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded generator repeated values: %d unique of 100", len(seen))
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	diff := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() != c2.Uint64() {
			diff++
		}
	}
	if diff < 1000 {
		t.Fatalf("forked streams overlapped: only %d/1000 differ", diff)
	}
}

func TestForkDeterministic(t *testing.T) {
	a := New(9).ForkString("machine-17")
	b := New(9).ForkString("machine-17")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-label forks diverged")
		}
	}
	c := New(9).ForkString("machine-18")
	d := New(9).ForkString("machine-17")
	if c.Uint64() == d.Uint64() {
		t.Fatal("different-label forks coincide on first output")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(6)
	const n = 10
	counts := make([]int, n)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(16)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(8); v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(8)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v", p)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(10)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(12)
	for _, lambda := range []float64{0.5, 3, 20, 100} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean %v", lambda, mean)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := New(13)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson with non-positive lambda must be 0")
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(14)
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.5}, {64, 0.1}, {1000, 0.01}, {500, 0.9}} {
		const trials = 20000
		sum := 0
		for i := 0; i < trials; i++ {
			k := r.Binomial(tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", tc.n, tc.p, k)
			}
			sum += k
		}
		mean := float64(sum) / trials
		want := float64(tc.n) * tc.p
		if math.Abs(mean-want) > want*0.06+0.1 {
			t.Fatalf("Binomial(%d,%v) mean %v want %v", tc.n, tc.p, mean, want)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(15)
	if r.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0,p) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Fatal("Binomial(n,0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Fatal("Binomial(n,1) != n")
	}
}

func TestWeibullShape1IsExponential(t *testing.T) {
	r := New(17)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(1, 2)
	}
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Fatalf("Weibull(1,2) mean %v want 2", mean)
	}
}

func TestWeibullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Weibull(0,1) did not panic")
		}
	}()
	New(1).Weibull(0, 1)
}

func TestLogNormalMedian(t *testing.T) {
	r := New(18)
	const n = 100001
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.LogNormal(2, 1.5)
	}
	// Median of lognormal is exp(mu); use a coarse selection.
	below := 0
	want := math.Exp(2)
	for _, v := range vs {
		if v < want {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("LogNormal median check: %v below exp(mu)", frac)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(20)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

func TestBytesFills(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 65} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 16 {
			zero := 0
			for _, c := range b {
				if c == 0 {
					zero++
				}
			}
			if zero == n {
				t.Fatalf("Bytes left %d-byte buffer all zero", n)
			}
		}
	}
}

func TestBytesDeterministic(t *testing.T) {
	a := make([]byte, 33)
	b := make([]byte, 33)
	New(5).Bytes(a)
	New(5).Bytes(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Bytes not deterministic")
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := New(22)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

func TestForkIntoMatchesFork(t *testing.T) {
	a := New(99)
	b := New(99)
	var dst RNG
	for _, label := range []uint64{0, 1, 42, 1 << 63} {
		forked := a.Fork(label)
		b.ForkInto(label, &dst)
		for i := 0; i < 64; i++ {
			if x, y := forked.Uint64(), dst.Uint64(); x != y {
				t.Fatalf("label %d draw %d: Fork %d != ForkInto %d", label, i, x, y)
			}
		}
	}
	// The parents must have consumed identical randomness.
	if a.Uint64() != b.Uint64() {
		t.Fatal("parents diverged after forking")
	}
}

func TestForkStringIntoMatchesConcatForkString(t *testing.T) {
	cases := []struct{ prefix, rest string }{
		{"prod:", "m00017/c03"},
		{"screen:", "m00000/c00"},
		{"", ""},
		{"a", "b"},
		{"confess:", "x/y/z with spaces"},
	}
	for _, c := range cases {
		a := New(7)
		b := New(7)
		forked := a.ForkString(c.prefix + c.rest)
		var dst RNG
		b.ForkStringInto(c.prefix, c.rest, &dst)
		for i := 0; i < 64; i++ {
			if x, y := forked.Uint64(), dst.Uint64(); x != y {
				t.Fatalf("%q+%q draw %d: ForkString %d != ForkStringInto %d",
					c.prefix, c.rest, i, x, y)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("%q+%q: parents diverged", c.prefix, c.rest)
		}
	}
}

func TestForkStringIntoAllocFree(t *testing.T) {
	r := New(3)
	var dst RNG
	allocs := testing.AllocsPerRun(100, func() {
		r.ForkStringInto("prod:", "m00017/c03", &dst)
	})
	if allocs != 0 {
		t.Fatalf("ForkStringInto allocates %v per call, want 0", allocs)
	}
}
