package fault

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/xrand"
)

func TestUnitOfCoversAllOps(t *testing.T) {
	for op := OpClass(0); op < NumOpClasses; op++ {
		u := UnitOf(op)
		if u < 0 || u >= numUnits {
			t.Fatalf("UnitOf(%v) = %v out of range", op, u)
		}
	}
}

func TestCopySharesVectorUnit(t *testing.T) {
	// §5: data-copy and vector operations share hardware logic.
	if UnitOf(OpCopy) != UnitVec || UnitOf(OpVec) != UnitVec {
		t.Fatal("copy and vector ops must share UnitVec")
	}
}

func TestStringers(t *testing.T) {
	if UnitALU.String() != "ALU" || UnitCrypto.String() != "CRYPTO" {
		t.Fatal("unit names wrong")
	}
	if OpAdd.String() != "add" || OpAtomic.String() != "atomic" {
		t.Fatal("op names wrong")
	}
	if CorruptBitFlip.String() != "bitflip" {
		t.Fatal("corruption names wrong")
	}
	if !strings.Contains(Unit(99).String(), "99") {
		t.Fatal("out-of-range unit should include number")
	}
	if !strings.Contains(OpClass(99).String(), "99") {
		t.Fatal("out-of-range op should include number")
	}
	if !strings.Contains(CorruptionKind(99).String(), "99") {
		t.Fatal("out-of-range kind should include number")
	}
}

func TestSensitivityNominalIsUnity(t *testing.T) {
	s := Sensitivity{Freq: 1.2, Volt: 2, Temp: 0.7}
	if f := s.Factor(Nominal); math.Abs(f-1) > 1e-12 {
		t.Fatalf("factor at nominal = %v", f)
	}
}

func TestSensitivityDirections(t *testing.T) {
	s := Sensitivity{Freq: 1, Volt: 1, Temp: 1}
	hot := Nominal
	hot.TempC = 90
	if s.Factor(hot) <= 1 {
		t.Fatal("higher temperature should raise rate for Temp>0")
	}
	fast := Nominal
	fast.FreqGHz = 3.5
	if s.Factor(fast) <= 1 {
		t.Fatal("higher frequency should raise rate for Freq>0")
	}
	lowV := Nominal
	lowV.VoltageV = 0.9
	if s.Factor(lowV) <= 1 {
		t.Fatal("lower voltage should raise rate for Volt>0")
	}
}

func TestLowFrequencyWorseDefect(t *testing.T) {
	// §5: lower frequency sometimes increases the failure rate.
	s := Sensitivity{Freq: -1.5}
	slow := Nominal
	slow.FreqGHz = 2.0
	if s.Factor(slow) <= 1 {
		t.Fatalf("negative Freq slope: slower clock must raise rate, factor=%v", s.Factor(slow))
	}
}

func TestSensitivityClamped(t *testing.T) {
	s := Sensitivity{Temp: 1000}
	hot := Nominal
	hot.TempC = 1e9
	f := s.Factor(hot)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		t.Fatalf("factor overflowed: %v", f)
	}
}

func TestDefectTriggersUnitGate(t *testing.T) {
	d := Defect{Unit: UnitMul}
	if d.Triggers(OpAdd, 0) {
		t.Fatal("mul defect triggered on add")
	}
	if !d.Triggers(OpMul, 0) {
		t.Fatal("mul defect did not trigger on mul")
	}
}

func TestDefectPatternGate(t *testing.T) {
	d := Defect{Unit: UnitALU, PatternMask: 0xFF, PatternVal: 0xAB}
	if d.Triggers(OpAdd, 0x12) {
		t.Fatal("pattern mismatch should not trigger")
	}
	if !d.Triggers(OpAdd, 0x5AB) {
		t.Fatal("pattern match should trigger")
	}
}

func TestDefectOnsetLatency(t *testing.T) {
	d := Defect{Unit: UnitALU, BaseRate: 1, Onset: 2 * simtime.Year}
	if r := d.Rate(Nominal, simtime.Year); r != 0 {
		t.Fatalf("rate before onset = %v", r)
	}
	if r := d.Rate(Nominal, 3*simtime.Year); r <= 0 {
		t.Fatalf("rate after onset = %v", r)
	}
}

func TestDefectEscalation(t *testing.T) {
	d := Defect{Unit: UnitALU, BaseRate: 1e-6, EscalatePerYear: 2}
	r1 := d.Rate(Nominal, simtime.Year)
	r2 := d.Rate(Nominal, 2*simtime.Year)
	if r2 <= r1 {
		t.Fatalf("escalating defect did not worsen: %v -> %v", r1, r2)
	}
	if math.Abs(r2/r1-2) > 0.01 {
		t.Fatalf("escalation factor = %v, want ~2", r2/r1)
	}
}

func TestDefectRateClamped(t *testing.T) {
	d := Defect{Unit: UnitALU, BaseRate: 0.9, EscalatePerYear: 10}
	if r := d.Rate(Nominal, 10*simtime.Year); r > 1 {
		t.Fatalf("rate exceeded 1: %v", r)
	}
}

func TestDeterministicDefect(t *testing.T) {
	d := Defect{Unit: UnitCrypto, Deterministic: true}
	rng := xrand.New(1)
	for i := 0; i < 100; i++ {
		if !d.Active(OpCrypto, 0, Nominal, 0, rng) {
			t.Fatal("deterministic defect failed to fire")
		}
	}
}

func TestCorruptResultKinds(t *testing.T) {
	cases := []struct {
		d    Defect
		in   uint64
		want uint64
	}{
		{Defect{Kind: CorruptBitFlip, BitPos: 3}, 0, 8},
		{Defect{Kind: CorruptBitFlip, BitPos: 3}, 8, 0},
		{Defect{Kind: CorruptStuckBit, BitPos: 0, StuckVal: 1}, 0, 1},
		{Defect{Kind: CorruptStuckBit, BitPos: 0, StuckVal: 0}, 0xFF, 0xFE},
		{Defect{Kind: CorruptXORMask, Mask: 0xF0}, 0x0F, 0xFF},
		{Defect{Kind: CorruptWrongLane}, 0x0102030405060708, 0x0203040506070801},
		{Defect{Kind: CorruptOffByOne, Delta: 3}, 10, 13},
		{Defect{Kind: CorruptOffByOne, Delta: -1}, 0, math.MaxUint64},
		// Engine-handled kinds pass through.
		{Defect{Kind: CorruptDropUpdate}, 42, 42},
		{Defect{Kind: CorruptPreXORInput, Mask: 0xFF}, 42, 42},
	}
	for i, c := range cases {
		if got := c.d.CorruptResult(c.in); got != c.want {
			t.Fatalf("case %d (%v): got %#x want %#x", i, c.d.Kind, got, c.want)
		}
	}
}

func TestCorruptionAlwaysChangesValueForResultKinds(t *testing.T) {
	// A corruption that returns the correct value would be invisible and
	// meaningless for result-transform kinds.
	rng := xrand.New(5)
	kinds := []Defect{
		{Kind: CorruptBitFlip, BitPos: 17},
		{Kind: CorruptXORMask, Mask: 0xDEADBEEF},
		{Kind: CorruptOffByOne, Delta: 1},
	}
	for _, d := range kinds {
		for i := 0; i < 1000; i++ {
			v := rng.Uint64()
			if d.CorruptResult(v) == v {
				t.Fatalf("%v left value %#x unchanged", d.Kind, v)
			}
		}
	}
}

func TestStuckBitIdempotent(t *testing.T) {
	d := Defect{Kind: CorruptStuckBit, BitPos: 9, StuckVal: 1}
	f := func(v uint64) bool {
		once := d.CorruptResult(v)
		return d.CorruptResult(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlipIsInvolution(t *testing.T) {
	d := Defect{Kind: CorruptBitFlip, BitPos: 31}
	f := func(v uint64) bool { return d.CorruptResult(d.CorruptResult(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefectString(t *testing.T) {
	d := Defect{ID: "d1", Class: "alu-stuck-bit", Unit: UnitALU, Kind: CorruptStuckBit, BaseRate: 1e-7}
	s := d.String()
	for _, want := range []string{"d1", "alu-stuck-bit", "ALU", "stuckbit"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestSampleDefectDeterministic(t *testing.T) {
	a := SampleDefect("x", xrand.New(3))
	b := SampleDefect("x", xrand.New(3))
	if a.Class != b.Class || a.BitPos != b.BitPos || a.BaseRate != b.BaseRate {
		t.Fatal("SampleDefect not deterministic for equal seeds")
	}
}

func TestSampleDefectCoversClasses(t *testing.T) {
	rng := xrand.New(11)
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		d := SampleDefect("d", rng)
		seen[d.Class]++
	}
	for _, c := range Catalog {
		if seen[c.Name] == 0 {
			t.Fatalf("class %q never sampled", c.Name)
		}
	}
	// Weights should be roughly respected: alu-stuck-bit (0.20) should be
	// sampled more than alu-low-freq-worse (0.03).
	if seen["alu-stuck-bit"] <= seen["alu-low-freq-worse"] {
		t.Fatalf("weights not respected: %v", seen)
	}
}

func TestCatalogRateSpreadIsOrdersOfMagnitude(t *testing.T) {
	// §2: corruption rates across defective cores span many orders of
	// magnitude. Sample a population and verify a >= 4-decade spread.
	rng := xrand.New(12)
	var lo, hi float64 = math.Inf(1), 0
	for i := 0; i < 2000; i++ {
		d := SampleDefect("d", rng)
		if d.Deterministic || d.BaseRate <= 0 {
			continue
		}
		if d.BaseRate < lo {
			lo = d.BaseRate
		}
		if d.BaseRate > hi {
			hi = d.BaseRate
		}
	}
	if decades := math.Log10(hi / lo); decades < 4 {
		t.Fatalf("rate spread only %.1f decades", decades)
	}
}

func TestClassByName(t *testing.T) {
	c, err := ClassByName("crypto-self-inverting")
	if err != nil || c.Name != "crypto-self-inverting" {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := ClassByName("no-such-class"); err == nil {
		t.Fatal("expected error for unknown class")
	}
}

func TestCatalogWeightsPositive(t *testing.T) {
	for _, c := range Catalog {
		if c.Weight <= 0 {
			t.Fatalf("class %q has non-positive weight", c.Name)
		}
		if c.Sample == nil {
			t.Fatalf("class %q has nil sampler", c.Name)
		}
	}
}

func TestCoreHealthyPath(t *testing.T) {
	c := NewCore("c0", xrand.New(1))
	if !c.Healthy() || c.Mercurial() {
		t.Fatal("empty core should be healthy, not mercurial")
	}
	for i := 0; i < 1000; i++ {
		if d := c.Decide(OpAdd, uint64(i)); d != nil {
			t.Fatal("healthy core produced a defect")
		}
	}
	if c.TotalOps() != 1000 || c.TotalCorruptions() != 0 {
		t.Fatalf("counters: ops=%d corr=%d", c.TotalOps(), c.TotalCorruptions())
	}
}

func TestCoreMercurialRespectsOnset(t *testing.T) {
	d := Defect{ID: "d", Unit: UnitALU, BaseRate: 1e-3, Onset: simtime.Year}
	c := NewCore("c1", xrand.New(2), d)
	if c.Healthy() {
		t.Fatal("core with defect is not healthy")
	}
	if c.Mercurial() {
		t.Fatal("latent defect should not be mercurial before onset")
	}
	c.Age = 2 * simtime.Year
	if !c.Mercurial() {
		t.Fatal("past onset, core should be mercurial")
	}
}

func TestCoreDecideFiresAtExpectedRate(t *testing.T) {
	d := Defect{ID: "d", Unit: UnitALU, BaseRate: 0.01}
	c := NewCore("c2", xrand.New(3), d)
	const n = 200000
	fired := 0
	for i := 0; i < n; i++ {
		if c.Decide(OpAdd, uint64(i)) != nil {
			fired++
		}
	}
	rate := float64(fired) / n
	if math.Abs(rate-0.01) > 0.002 {
		t.Fatalf("empirical rate %v, want ~0.01", rate)
	}
	if c.TotalCorruptions() != uint64(fired) {
		t.Fatal("corruption counter mismatch")
	}
	if got := c.ObservedRate(); math.Abs(got-rate) > 1e-12 {
		t.Fatalf("ObservedRate = %v, want %v", got, rate)
	}
}

func TestCoreDecideOnlyMatchingOps(t *testing.T) {
	d := Defect{ID: "d", Unit: UnitCrypto, Deterministic: true}
	c := NewCore("c3", xrand.New(4), d)
	if c.Decide(OpAdd, 0) != nil {
		t.Fatal("crypto defect fired on add")
	}
	if c.Decide(OpCrypto, 0) == nil {
		t.Fatal("crypto defect did not fire on crypto op")
	}
}

func TestCoreOnCorruptHook(t *testing.T) {
	d := Defect{ID: "d", Unit: UnitALU, Deterministic: true}
	c := NewCore("c4", xrand.New(5), d)
	var events []CorruptionEvent
	c.OnCorrupt = func(e CorruptionEvent) { events = append(events, e) }
	c.Decide(OpAdd, 1)
	c.Decide(OpMul, 1) // wrong unit, no event
	c.Decide(OpSub, 1)
	if len(events) != 2 {
		t.Fatalf("hook saw %d events, want 2", len(events))
	}
	if events[0].Op != OpAdd || events[1].Op != OpSub {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Defect.ID != "d" {
		t.Fatal("event defect wrong")
	}
	if events[1].Seq <= events[0].Seq {
		t.Fatal("sequence numbers not increasing")
	}
}

func TestCoreObservedRateEmpty(t *testing.T) {
	c := NewCore("c6", xrand.New(7))
	if c.ObservedRate() != 0 {
		t.Fatal("empty core rate should be 0")
	}
}

func TestNewCoreCopiesDefects(t *testing.T) {
	d := []Defect{{ID: "d", Unit: UnitALU}}
	c := NewCore("c7", xrand.New(8), d...)
	d[0].ID = "mutated"
	if c.Defects[0].ID != "d" {
		t.Fatal("NewCore did not copy defects")
	}
}

func BenchmarkDecideHealthy(b *testing.B) {
	c := NewCore("b0", xrand.New(1))
	for i := 0; i < b.N; i++ {
		c.Decide(OpAdd, uint64(i))
	}
}

func BenchmarkDecideDefective(b *testing.B) {
	c := NewCore("b1", xrand.New(1), Defect{Unit: UnitALU, BaseRate: 1e-6})
	for i := 0; i < b.N; i++ {
		c.Decide(OpAdd, uint64(i))
	}
}
