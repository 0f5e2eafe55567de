package engine

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/xrand"
)

func healthy(t testing.TB) *Engine {
	t.Helper()
	return New(fault.NewCore("h", xrand.New(1)))
}

func defective(t testing.TB, d fault.Defect) *Engine {
	t.Helper()
	d.ID = "d"
	return New(fault.NewCore("m", xrand.New(2), d))
}

func TestHealthyArithmetic(t *testing.T) {
	e := healthy(t)
	if e.Add64(3, 4) != 7 || e.Sub64(10, 4) != 6 || e.Mul64(6, 7) != 42 {
		t.Fatal("basic arithmetic wrong on healthy core")
	}
	q, r := e.Div64(17, 5)
	if q != 3 || r != 2 {
		t.Fatalf("div: q=%d r=%d", q, r)
	}
	if e.Or64(0xF0, 0x0F) != 0xFF || e.Xor64(0xFF, 0x0F) != 0xF0 {
		t.Fatal("logic ops wrong")
	}
	if e.Shl64(1, 10) != 1024 || e.Shr64(1024, 10) != 1 {
		t.Fatal("shift ops wrong")
	}
	if !e.Less64(1, 2) || e.Less64(2, 1) || e.Less64(2, 2) {
		t.Fatal("compare wrong")
	}
	if !e.Equal64(5, 5) || e.Equal64(5, 6) {
		t.Fatal("equality wrong")
	}
	if e.FAdd(1.5, 2.5) != 4.0 || e.FMul(3, 4) != 12.0 {
		t.Fatal("float ops wrong")
	}
}

func TestHealthyQuickMatchesNative(t *testing.T) {
	e := healthy(t)
	f := func(a, b uint64) bool {
		if e.Add64(a, b) != a+b || e.Sub64(a, b) != a-b || e.Mul64(a, b) != a*b {
			return false
		}
		if e.Xor64(a, b) != a^b || e.Or64(a, b) != a|b {
			return false
		}
		if b != 0 {
			q, r := e.Div64(a, b)
			if q != a/b || r != a%b {
				return false
			}
		}
		return e.Less64(a, b) == (a < b) && e.Equal64(a, b) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	e := healthy(t)
	q, r := e.Div64(1, 0)
	if q != 0 || r != 0 {
		t.Fatal("div-by-zero should return zeros")
	}
	trap := e.Trapped()
	if trap == nil || trap.Kind != "div-by-zero" {
		t.Fatalf("trap = %v", trap)
	}
	e.ClearTrap()
	if e.Trapped() != nil {
		t.Fatal("ClearTrap did not clear")
	}
}

func TestTrapKeepsFirst(t *testing.T) {
	e := healthy(t)
	e.Div64(1, 0)
	m := NewMemory(4)
	e.Load(m, 100)
	if e.Trapped().Kind != "div-by-zero" {
		t.Fatal("trap should record the first fault")
	}
}

func TestTrapError(t *testing.T) {
	tr := &Trap{Kind: "segfault", Op: fault.OpLoad, Addr: 0xdead}
	if got := tr.Error(); got == "" {
		t.Fatal("empty trap error")
	}
}

func TestDefectiveAddCorrupts(t *testing.T) {
	e := defective(t, fault.Defect{
		Unit: fault.UnitALU, Deterministic: true,
		Kind: fault.CorruptBitFlip, BitPos: 0,
	})
	if e.Add64(2, 2) != 5 {
		t.Fatal("expected corrupted add 2+2=5")
	}
	// Mul routes through a different unit and stays correct.
	if e.Mul64(2, 2) != 4 {
		t.Fatal("mul should be unaffected by ALU defect")
	}
}

func TestCorruptedCompareFlipsBranch(t *testing.T) {
	e := defective(t, fault.Defect{
		Unit: fault.UnitALU, Deterministic: true,
		Kind: fault.CorruptBitFlip, BitPos: 0,
	})
	if e.Less64(1, 2) {
		t.Fatal("corrupted compare should report 1 < 2 as false")
	}
}

func TestVectorOpsHealthy(t *testing.T) {
	e := healthy(t)
	a := []uint64{1, 2, 3, 4}
	b := []uint64{10, 20, 30, 40}
	dst := make([]uint64, 4)
	e.VecAdd(dst, a, b)
	for i := range dst {
		if dst[i] != a[i]+b[i] {
			t.Fatalf("VecAdd[%d] = %d", i, dst[i])
		}
	}
	e.VecXor(dst, a, b)
	for i := range dst {
		if dst[i] != a[i]^b[i] {
			t.Fatalf("VecXor[%d] = %d", i, dst[i])
		}
	}
	if e.VecSum(a) != 10 {
		t.Fatal("VecSum wrong")
	}
}

func TestVectorDefectAlsoHitsCopy(t *testing.T) {
	// §5: data-copy and vector ops share hardware logic — one defect must
	// corrupt both.
	e := defective(t, fault.Defect{
		Unit: fault.UnitVec, Deterministic: true,
		Kind: fault.CorruptBitFlip, BitPos: 7,
	})
	dst := make([]uint64, 1)
	e.VecAdd(dst, []uint64{1}, []uint64{1})
	if dst[0] == 2 {
		t.Fatal("vector defect did not corrupt VecAdd")
	}
	src := []byte("12345678")
	out := make([]byte, 8)
	e.Copy(out, src)
	if bytes.Equal(out, src) {
		t.Fatal("vector defect did not corrupt Copy")
	}
}

func TestCopyHealthyAllSizes(t *testing.T) {
	e := healthy(t)
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000} {
		src := make([]byte, n)
		rng.Bytes(src)
		dst := make([]byte, n)
		if got := e.Copy(dst, src); got != n {
			t.Fatalf("Copy returned %d, want %d", got, n)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("Copy corrupted healthy data at n=%d", n)
		}
	}
}

func TestCopyShorterDst(t *testing.T) {
	e := healthy(t)
	src := []byte("abcdefghij")
	dst := make([]byte, 4)
	if n := e.Copy(dst, src); n != 4 {
		t.Fatalf("n = %d", n)
	}
	if string(dst) != "abcd" {
		t.Fatalf("dst = %q", dst)
	}
}

func TestCopyBitflipPositionPattern(t *testing.T) {
	// The §2 string-bitflip incident: same bit position every time.
	e := defective(t, fault.Defect{
		Unit: fault.UnitVec, Deterministic: true,
		Kind: fault.CorruptBitFlip, BitPos: 9,
	})
	src := make([]byte, 64)
	dst := make([]byte, 64)
	e.Copy(dst, src)
	for i := 0; i < 64; i += 8 {
		w := le64(dst[i:])
		if w != 1<<9 {
			t.Fatalf("word %d = %#x, want bit 9 flipped", i/8, w)
		}
	}
}

func TestCryptoRoundTripHealthy(t *testing.T) {
	e := healthy(t)
	f := func(x, k uint64) bool {
		return e.CryptoDecrypt64(e.CryptoEncrypt64(x, k), k) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCryptoGoldenInverse(t *testing.T) {
	f := func(x, k uint64) bool { return cryptoD(cryptoE(x, k), k) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCryptoDiffusion(t *testing.T) {
	// Flipping one plaintext bit should change many ciphertext bits.
	y0 := cryptoE(0, 42)
	y1 := cryptoE(1, 42)
	diff := y0 ^ y1
	n := 0
	for ; diff != 0; diff &= diff - 1 {
		n++
	}
	if n < 16 {
		t.Fatalf("only %d bits differ; cipher has poor diffusion", n)
	}
}

func TestSelfInvertingCryptoDefect(t *testing.T) {
	// §2's deterministic AES mis-computation. Same core: E then D is the
	// identity. Different (healthy) core: decryption yields gibberish.
	mask := uint64(1) << 37
	d := fault.Defect{
		Unit: fault.UnitCrypto, Deterministic: true,
		Kind: fault.CorruptPreXORInput, Mask: mask,
	}
	bad := defective(t, d)
	good := healthy(t)
	const key = 0xfeedface
	for x := uint64(0); x < 64; x++ {
		ct := bad.CryptoEncrypt64(x, key)
		if got := bad.CryptoDecrypt64(ct, key); got != x {
			t.Fatalf("same-core roundtrip broke: %#x -> %#x", x, got)
		}
		if got := good.CryptoDecrypt64(ct, key); got != x^mask {
			t.Fatalf("cross-core decrypt: got %#x want gibberish %#x", got, x^mask)
		}
		if ct == good.CryptoEncrypt64(x, key) {
			t.Fatalf("defective ciphertext equals healthy ciphertext for x=%d", x)
		}
	}
}

func TestSelfInvertingPatternGated(t *testing.T) {
	d := fault.Defect{
		Unit: fault.UnitCrypto, Deterministic: true,
		Kind: fault.CorruptPreXORInput, Mask: 1 << 5,
		PatternMask: 0x7, PatternVal: 0x3,
	}
	bad := defective(t, d)
	good := healthy(t)
	const key = 99
	// Non-matching block encrypts correctly.
	if bad.CryptoEncrypt64(0, key) != good.CryptoEncrypt64(0, key) {
		t.Fatal("pattern-gated defect fired on non-matching block")
	}
	// Matching block (low bits 0b011) is corrupted.
	if bad.CryptoEncrypt64(3, key) == good.CryptoEncrypt64(3, key) {
		t.Fatal("pattern-gated defect did not fire on matching block")
	}
}

func TestCASHealthy(t *testing.T) {
	e := healthy(t)
	var v uint64 = 5
	if !e.CAS(&v, 5, 9) || v != 9 {
		t.Fatalf("CAS success path: v=%d", v)
	}
	if e.CAS(&v, 5, 1) || v != 9 {
		t.Fatalf("CAS failure path: v=%d", v)
	}
}

func TestCASDropUpdateLies(t *testing.T) {
	e := defective(t, fault.Defect{
		Unit: fault.UnitAtomic, Deterministic: true,
		Kind: fault.CorruptDropUpdate,
	})
	var v uint64 = 5
	if !e.CAS(&v, 5, 9) {
		t.Fatal("drop-update CAS should still report success")
	}
	if v != 5 {
		t.Fatalf("drop-update CAS stored: v=%d", v)
	}
}

func TestFetchAddHealthyAndDropped(t *testing.T) {
	e := healthy(t)
	var v uint64 = 10
	if old := e.FetchAdd(&v, 5); old != 10 || v != 15 {
		t.Fatalf("FetchAdd: old=%d v=%d", old, v)
	}
	bad := defective(t, fault.Defect{
		Unit: fault.UnitAtomic, Deterministic: true,
		Kind: fault.CorruptDropUpdate,
	})
	v = 10
	if old := bad.FetchAdd(&v, 5); old != 10 || v != 10 {
		t.Fatalf("dropped FetchAdd: old=%d v=%d", old, v)
	}
}

func TestMemoryLoadStoreHealthy(t *testing.T) {
	e := healthy(t)
	m := NewMemory(16)
	e.Store(m, 3, 77)
	if e.Load(m, 3) != 77 {
		t.Fatal("load after store wrong")
	}
	if e.Trapped() != nil {
		t.Fatal("unexpected trap")
	}
}

func TestMemoryOOBTraps(t *testing.T) {
	e := healthy(t)
	m := NewMemory(4)
	if v := e.Load(m, 4); v != 0 {
		t.Fatalf("OOB load returned %d", v)
	}
	if tr := e.Trapped(); tr == nil || tr.Kind != "segfault" {
		t.Fatalf("trap = %v", tr)
	}
	e.ClearTrap()
	e.Store(m, 99, 1)
	if tr := e.Trapped(); tr == nil || tr.Kind != "segfault" {
		t.Fatalf("store trap = %v", tr)
	}
}

func TestAddressDefectCorruptsNeighbour(t *testing.T) {
	// The LSU off-by-delta defect: a store lands on a neighbouring word,
	// silently corrupting unrelated state (§2's kernel-crash pattern).
	e := defective(t, fault.Defect{
		Unit: fault.UnitLSU, Deterministic: true,
		Kind: fault.CorruptOffByOne, Delta: 2,
	})
	m := NewMemory(16)
	m.Words[5] = 111 // victim
	e.Store(m, 3, 42)
	if m.Words[3] != 0 {
		t.Fatal("store landed at the right address despite defect")
	}
	if m.Words[5] != 42 {
		t.Fatalf("neighbour not corrupted: %v", m.Words[:8])
	}
}

func TestAddressDefectCanTrap(t *testing.T) {
	e := defective(t, fault.Defect{
		Unit: fault.UnitLSU, Deterministic: true,
		Kind: fault.CorruptOffByOne, Delta: 100,
	})
	m := NewMemory(4)
	e.Load(m, 3)
	if tr := e.Trapped(); tr == nil || tr.Kind != "segfault" {
		t.Fatal("wild address should trap")
	}
}

func TestLoadDataDefectCorruptsValue(t *testing.T) {
	e := defective(t, fault.Defect{
		Unit: fault.UnitLSU, Deterministic: true,
		Kind: fault.CorruptBitFlip, BitPos: 4,
	})
	m := NewMemory(8)
	m.Words[2] = 0
	if v := e.Load(m, 2); v != 1<<4 {
		t.Fatalf("load data defect: got %#x", v)
	}
}

func TestOpAccounting(t *testing.T) {
	e := healthy(t)
	e.Add64(1, 2)
	e.Add64(1, 2)
	e.Mul64(3, 4)
	c := e.Core()
	if c.OpCount[fault.OpAdd] != 2 || c.OpCount[fault.OpMul] != 1 {
		t.Fatalf("op counts: %v", c.OpCount)
	}
}

func TestIntermittentCorruptionRate(t *testing.T) {
	e := defective(t, fault.Defect{
		Unit: fault.UnitALU, BaseRate: 0.01,
		Kind: fault.CorruptBitFlip, BitPos: 3,
	})
	const n = 100000
	bad := 0
	for i := 0; i < n; i++ {
		if e.Add64(uint64(i), 1) != uint64(i)+1 {
			bad++
		}
	}
	rate := float64(bad) / n
	if rate < 0.005 || rate > 0.02 {
		t.Fatalf("observed corruption rate %v, want ~0.01", rate)
	}
}

func TestLE64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var b [8]byte
		putLE64(b[:], v)
		return le64(b[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd64Healthy(b *testing.B) {
	e := New(fault.NewCore("b", xrand.New(1)))
	var s uint64
	for i := 0; i < b.N; i++ {
		s = e.Add64(s, uint64(i))
	}
	_ = s
}

func BenchmarkCopyHealthy(b *testing.B) {
	e := New(fault.NewCore("b", xrand.New(1)))
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		e.Copy(dst, src)
	}
}

func BenchmarkCryptoEncrypt(b *testing.B) {
	e := New(fault.NewCore("b", xrand.New(1)))
	var s uint64
	for i := 0; i < b.N; i++ {
		s = e.CryptoEncrypt64(s, 42)
	}
	_ = s
}
