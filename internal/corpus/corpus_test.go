package corpus

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

func healthyEngine(seed uint64) *engine.Engine {
	return engine.New(fault.NewCore("h", xrand.New(seed)))
}

func defectiveEngine(seed uint64, d fault.Defect) *engine.Engine {
	d.ID = "d"
	return engine.New(fault.NewCore("m", xrand.New(seed), d))
}

func TestAllWorkloadsPassOnHealthyCore(t *testing.T) {
	for _, w := range All() {
		res := w.Run(healthyEngine(1), xrand.New(7))
		if res.Verdict != Pass {
			t.Fatalf("%s on healthy core: %v (%s)", w.Name(), res.Verdict, res.Detail)
		}
		if res.Ops == 0 {
			t.Fatalf("%s consumed no engine ops; it is not exercising the core", w.Name())
		}
		if res.Workload != w.Name() {
			t.Fatalf("result workload name %q != %q", res.Workload, w.Name())
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		name := w.Name()
		w1, _ := ByName(name)
		w2, _ := ByName(name)
		r1 := w1.Run(healthyEngine(5), xrand.New(9))
		r2 := w2.Run(healthyEngine(5), xrand.New(9))
		if r1.Verdict != r2.Verdict || r1.Ops != r2.Ops {
			t.Fatalf("%s not deterministic: %+v vs %+v", name, r1, r2)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("matmul")
	if err != nil || w.Name() != "matmul" {
		t.Fatalf("ByName: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestNamesUniqueAndNonEmpty(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("corpus too small: %d workloads", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		n := w.Name()
		if n == "" || seen[n] {
			t.Fatalf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestVerdictString(t *testing.T) {
	if Pass.String() != "pass" || WrongAnswer.String() != "wrong-answer" || Trapped.String() != "trap" {
		t.Fatal("verdict strings wrong")
	}
	if !strings.Contains(Verdict(9).String(), "9") {
		t.Fatal("unknown verdict should include number")
	}
}

func TestUnitsDeclared(t *testing.T) {
	for _, w := range All() {
		if len(w.Units()) == 0 {
			t.Fatalf("%s declares no units", w.Name())
		}
	}
}

// paddedEngine returns an engine on a core with a zero-rate defect on
// every unit: every workload takes its engine loop, yet no op ever draws
// or fires.
func paddedEngine(seed uint64) *engine.Engine {
	var pads []fault.Defect
	for u := fault.UnitALU; u <= fault.UnitAtomic; u++ {
		pads = append(pads, fault.Defect{ID: "pad-" + u.String(), Unit: u})
	}
	return engine.New(fault.NewCore("h", xrand.New(seed), pads...))
}

// TestUnitsAreTheUnitsARunTouches holds Units to the units whose op
// counters one run moves, natively on a healthy core and through the
// engine loop on a padded one: the native gate and Report.UnitsCovered
// both rely on it. The two runs must return the same result, count the
// same ops and leave the input stream in the same place.
func TestUnitsAreTheUnitsARunTouches(t *testing.T) {
	for _, w := range All() {
		h, p := healthyEngine(1), paddedEngine(1)
		hr, pr := xrand.New(7), xrand.New(7)
		if got, want := w.Run(h, hr), w.Run(p, pr); got != want {
			t.Fatalf("%s: native %+v, engine loop %+v", w.Name(), got, want)
		}
		if h.Core().OpCount != p.Core().OpCount {
			t.Fatalf("%s: native ops %v, engine loop %v", w.Name(), h.Core().OpCount, p.Core().OpCount)
		}
		if hr.Uint64() != pr.Uint64() {
			t.Fatalf("%s: native and engine loop drew differently", w.Name())
		}
		var touched fault.UnitSet
		for op, n := range h.Core().OpCount {
			if n > 0 {
				touched |= fault.SetOf(fault.UnitOf(fault.OpClass(op)))
			}
		}
		if want := fault.SetOf(w.Units()...); touched != want {
			t.Fatalf("%s: ops on units %08b, Units() %08b (%v)", w.Name(), touched, want, w.Units())
		}
	}
}

// detects runs the workload repeatedly on a defective engine and reports
// whether any run detected the defect (wrong answer or trap).
func detects(t *testing.T, w Workload, d fault.Defect, runs int) bool {
	t.Helper()
	e := defectiveEngine(3, d)
	rng := xrand.New(11)
	for i := 0; i < runs; i++ {
		res := w.Run(e, rng)
		if res.Verdict != Pass {
			return true
		}
	}
	return false
}

func TestArithDetectsALUDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitALU, BaseRate: 1e-3, Kind: fault.CorruptBitFlip, BitPos: 13}
	if !detects(t, NewArith(4096), d, 10) {
		t.Fatal("arith-torture missed an ALU defect")
	}
}

func TestArithDetectsMulDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitMul, BaseRate: 1e-2, Kind: fault.CorruptBitFlip, BitPos: 40}
	if !detects(t, NewArith(4096), d, 10) {
		t.Fatal("arith-torture missed a MUL defect")
	}
}

func TestHashDetectsMulDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitMul, BaseRate: 1e-3, Kind: fault.CorruptBitFlip, BitPos: 7}
	if !detects(t, NewHash(2048), d, 10) {
		t.Fatal("hash-fnv missed a MUL defect")
	}
}

func TestCRCDetectsALUDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitALU, BaseRate: 1e-3, Kind: fault.CorruptStuckBit, BitPos: 5, StuckVal: 1}
	if !detects(t, NewCRC(2048), d, 10) {
		t.Fatal("crc missed an ALU defect")
	}
}

func TestCopyDetectsVecDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitVec, BaseRate: 1e-3, Kind: fault.CorruptBitFlip, BitPos: 9}
	if !detects(t, NewCopy(4096), d, 10) {
		t.Fatal("memcpy missed a VEC defect")
	}
}

func TestVecDetectsVecDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitVec, BaseRate: 1e-3, Kind: fault.CorruptWrongLane}
	if !detects(t, NewVec(1024), d, 10) {
		t.Fatal("vector-ops missed a VEC defect")
	}
}

func TestFloatDetectsFPUDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitFPU, BaseRate: 1e-2, Kind: fault.CorruptBitFlip, BitPos: 3}
	if !detects(t, NewFloat(2048), d, 10) {
		t.Fatal("float-ops missed an FPU defect")
	}
}

func TestMatMulDetectsMulDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitMul, BaseRate: 1e-3, Kind: fault.CorruptBitFlip, BitPos: 22}
	if !detects(t, NewMatMul(12), d, 10) {
		t.Fatal("matmul missed a MUL defect")
	}
}

func TestSortDetectsCompareDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitALU, BaseRate: 5e-3, Kind: fault.CorruptBitFlip, BitPos: 0}
	if !detects(t, NewSort(512), d, 20) {
		t.Fatal("sort missed a compare defect")
	}
}

func TestLockDetectsDroppedCAS(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitAtomic, BaseRate: 0.05, Kind: fault.CorruptDropUpdate}
	if !detects(t, NewLock(8, 64), d, 20) {
		t.Fatal("lock-semantics missed a dropped CAS")
	}
}

func TestMemDetectsLSUDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitLSU, BaseRate: 1e-3, Kind: fault.CorruptOffByOne, Delta: 1}
	if !detects(t, NewMem(1024), d, 10) {
		t.Fatal("mem-pattern missed an LSU address defect")
	}
}

func TestMemDataDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitLSU, BaseRate: 1e-3, Kind: fault.CorruptBitFlip, BitPos: 17}
	if !detects(t, NewMem(1024), d, 10) {
		t.Fatal("mem-pattern missed an LSU data defect")
	}
}

func TestCryptoKnownAnswerCatchesSelfInverting(t *testing.T) {
	d := fault.Defect{
		Unit: fault.UnitCrypto, Deterministic: true,
		Kind: fault.CorruptPreXORInput, Mask: 1 << 23,
	}
	if !detects(t, NewCryptoKnownAnswer(64), d, 1) {
		t.Fatal("known-answer crypto test missed the self-inverting defect")
	}
}

func TestCryptoRoundtripMissesSelfInverting(t *testing.T) {
	// The paper's key observation: the self-inverting AES defect is
	// invisible to same-core roundtrip checks.
	d := fault.Defect{
		Unit: fault.UnitCrypto, Deterministic: true,
		Kind: fault.CorruptPreXORInput, Mask: 1 << 23,
	}
	w := NewCryptoRoundtrip(256)
	e := defectiveEngine(3, d)
	rng := xrand.New(11)
	for i := 0; i < 5; i++ {
		if res := w.Run(e, rng); res.Verdict != Pass {
			t.Fatalf("roundtrip check unexpectedly detected self-inverting defect: %s", res.Detail)
		}
	}
}

func TestCryptoRoundtripCatchesNonInverting(t *testing.T) {
	d := fault.Defect{
		Unit: fault.UnitCrypto, BaseRate: 0.01,
		Kind: fault.CorruptBitFlip, BitPos: 11,
	}
	if !detects(t, NewCryptoRoundtrip(256), d, 20) {
		t.Fatal("roundtrip check missed an ordinary crypto defect")
	}
}

func TestLZRoundtripHealthy(t *testing.T) {
	e := healthyEngine(2)
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 10, 100, 2048} {
		src := compressible(rng, n)
		comp := LZCompress(e, src)
		dec, err := LZDecompress(e, comp)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("n=%d: roundtrip mismatch", n)
		}
	}
}

func TestLZActuallyCompresses(t *testing.T) {
	e := healthyEngine(2)
	src := bytes.Repeat([]byte("abcdefgh"), 200)
	comp := LZCompress(e, src)
	if len(comp) >= len(src)/2 {
		t.Fatalf("poor compression: %d -> %d", len(src), len(comp))
	}
}

func TestLZRandomDataRoundtrips(t *testing.T) {
	e := healthyEngine(2)
	rng := xrand.New(5)
	src := make([]byte, 1000)
	rng.Bytes(src)
	comp := LZCompress(e, src)
	dec, err := LZDecompress(e, comp)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("incompressible roundtrip failed: %v", err)
	}
}

func TestLZDecompressRejectsGarbage(t *testing.T) {
	e := healthyEngine(2)
	cases := [][]byte{
		{0x00},             // zero-length literal run
		{0x05, 'a'},        // truncated literal run
		{0x80},             // match with missing offset
		{0x80, 0x00, 0x00}, // zero offset
		{0x81, 0xFF, 0x7F}, // offset beyond output
	}
	for i, c := range cases {
		if _, err := LZDecompress(e, c); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestCompressDetectsVecDefect(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitVec, BaseRate: 1e-3, Kind: fault.CorruptBitFlip, BitPos: 3}
	if !detects(t, NewCompress(2048), d, 10) {
		t.Fatal("lz-compress missed a VEC defect")
	}
}

func TestSortSliceHealthy(t *testing.T) {
	e := healthyEngine(4)
	rng := xrand.New(6)
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 1000} {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = rng.Uint64n(100)
		}
		SortSlice(e, xs)
		for i := 1; i < n; i++ {
			if xs[i-1] > xs[i] {
				t.Fatalf("n=%d misordered at %d", n, i)
			}
		}
	}
}

func TestLockPassesHealthy(t *testing.T) {
	res := NewLock(16, 32).Run(healthyEngine(8), xrand.New(12))
	if res.Verdict != Pass {
		t.Fatalf("healthy lock run failed: %s", res.Detail)
	}
}

func TestMulMatricesGoldenAgreement(t *testing.T) {
	e := healthyEngine(9)
	rng := xrand.New(13)
	n := 6
	a := make([]uint64, n*n)
	b := make([]uint64, n*n)
	for i := range a {
		a[i] = rng.Uint64()
		b[i] = rng.Uint64()
	}
	got := MulMatrices(e, a, b, n)
	want := mulGolden(a, b, n)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestRunContainsCrash(t *testing.T) {
	e := healthyEngine(10)
	res := run(e, "crashy", func() string { panic("boom") })
	if res.Verdict != Trapped {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if !strings.Contains(res.Detail, "boom") {
		t.Fatalf("detail = %q", res.Detail)
	}
}

func BenchmarkCorpusFullPassHealthy(b *testing.B) {
	e := healthyEngine(1)
	rng := xrand.New(2)
	all := All()
	for i := 0; i < b.N; i++ {
		for _, w := range all {
			if res := w.Run(e, rng); res.Verdict != Pass {
				b.Fatalf("%s failed on healthy core", w.Name())
			}
		}
	}
}

func TestAtomicDetectsStoreValueCorruption(t *testing.T) {
	// The coverage gap the forensics work exposed: a deterministic
	// store-value corruption on CAS preserves mutual exclusion (the lock
	// workload passes) but atomic-torture must catch it.
	d := fault.Defect{Unit: fault.UnitAtomic, Deterministic: true,
		Kind: fault.CorruptOffByOne, Delta: 1}
	if !detects(t, NewAtomic(256), d, 1) {
		t.Fatal("atomic-torture missed a store-value CAS corruption")
	}
	lock := NewLock(8, 64)
	e := defectiveEngine(9, d)
	rng := xrand.New(10)
	for i := 0; i < 5; i++ {
		if res := lock.Run(e, rng); res.Verdict != Pass {
			t.Skip("lock workload unexpectedly caught it; gap closed elsewhere")
		}
	}
}

func TestAtomicDetectsDroppedUpdate(t *testing.T) {
	d := fault.Defect{Unit: fault.UnitAtomic, BaseRate: 0.01,
		Kind: fault.CorruptDropUpdate}
	if !detects(t, NewAtomic(256), d, 20) {
		t.Fatal("atomic-torture missed dropped updates")
	}
}

func TestAtomicPassesHealthy(t *testing.T) {
	if res := NewAtomic(256).Run(healthyEngine(11), xrand.New(12)); res.Verdict != Pass {
		t.Fatalf("healthy atomic run failed: %s", res.Detail)
	}
}
