package ecc

import (
	"hash/crc32"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

func healthyEngine() *engine.Engine {
	return engine.New(fault.NewCore("h", xrand.New(1)))
}

// loopingEngine's ALU carries a defect that never fires (rate 0): its
// logic and shift ops are armed, so the engine-routed codes take their
// per-op loops, yet every result is exact.
func loopingEngine() *engine.Engine {
	return engine.New(fault.NewCore("l", xrand.New(1), fault.Defect{ID: "idle", Unit: fault.UnitALU}))
}

// crc32cRef and crc64Ref are the table-driven byte loops: the references
// the Golden forms (which call hash/crc32 and hash/crc64) are held to.
func crc32cRef(data []byte) uint32 {
	crc := uint32(0xFFFFFFFF)
	for _, b := range data {
		crc = crc>>8 ^ crc32cTable[byte(crc)^b]
	}
	return crc ^ 0xFFFFFFFF
}

func crc64Ref(data []byte) uint64 {
	crc := ^uint64(0)
	for _, b := range data {
		crc = crc>>8 ^ crc64Table[byte(crc)^b]
	}
	return ^crc
}

func TestCRC32CMatchesStdlib(t *testing.T) {
	// Our Castagnoli table must agree with hash/crc32.
	table := crc32.MakeTable(crc32.Castagnoli)
	rng := xrand.New(2)
	for _, n := range []int{0, 1, 3, 64, 1000} {
		data := make([]byte, n)
		rng.Bytes(data)
		want := crc32.Checksum(data, table)
		if got := crc32cRef(data); got != want {
			t.Fatalf("table CRC32C(%d bytes) = %#x, want %#x", n, got, want)
		}
	}
}

// checkCodes compares every engine-routed code, on a healthy and on a
// looping engine, and every Golden form with its table or loop reference.
func checkCodes(t *testing.T, data []byte) {
	t.Helper()
	fnvLoop := FNV64a(loopingEngine(), data)
	for name, e := range map[string]*engine.Engine{"healthy": healthyEngine(), "looping": loopingEngine()} {
		if got, want := CRC32C(e, data), crc32cRef(data); got != want {
			t.Fatalf("%s CRC32C(%d bytes) = %#x, table %#x", name, len(data), got, want)
		}
		if got, want := CRC64(e, data), crc64Ref(data); got != want {
			t.Fatalf("%s CRC64(%d bytes) = %#x, table %#x", name, len(data), got, want)
		}
		if got := FNV64a(e, data); got != fnvLoop {
			t.Fatalf("%s FNV64a(%d bytes) = %#x, per-op loop %#x", name, len(data), got, fnvLoop)
		}
		if Fletcher64(e, data) != Fletcher64Golden(data) {
			t.Fatalf("%s Fletcher64 mismatch at n=%d", name, len(data))
		}
	}
	if got, want := CRC32CGolden(data), crc32cRef(data); got != want {
		t.Fatalf("CRC32CGolden(%d bytes) = %#x, table %#x", len(data), got, want)
	}
	if got, want := CRC64Golden(data), crc64Ref(data); got != want {
		t.Fatalf("CRC64Golden(%d bytes) = %#x, table %#x", len(data), got, want)
	}
	if got := FNV64aGolden(data); got != fnvLoop {
		t.Fatalf("FNV64aGolden(%d bytes) = %#x, per-op loop %#x", len(data), got, fnvLoop)
	}
}

func TestEngineFormsMatchGoldenOnHealthyCore(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 5, 8, 100, 4096} {
		data := make([]byte, n)
		rng.Bytes(data)
		checkCodes(t, data)
	}
}

func TestFNV64aKnownAnswers(t *testing.T) {
	// FNV-1a 64 test vectors.
	for in, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := FNV64a(loopingEngine(), []byte(in)); got != want {
			t.Fatalf("FNV64a(%q) = %#x, want %#x", in, got, want)
		}
	}
}

// FuzzBulkChecksums holds the natively computed checksums and
// fingerprint to their table or per-op loop references on arbitrary bytes.
func FuzzBulkChecksums(f *testing.F) {
	for _, seed := range []string{"", "a", "hello, mercurial world", "\x00\xff\x00\xff\x00\xff\x00\xff\x01"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCodes(t, data) })
}

func TestMix64MatchesGolden(t *testing.T) {
	e := healthyEngine()
	f := func(x uint64) bool { return Mix64(e, x) == Mix64Golden(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip many output bits.
	for bit := uint(0); bit < 64; bit += 7 {
		a := Mix64Golden(0x1234)
		b := Mix64Golden(0x1234 ^ 1<<bit)
		diff := a ^ b
		n := 0
		for ; diff != 0; diff &= diff - 1 {
			n++
		}
		if n < 10 {
			t.Fatalf("bit %d: only %d output bits changed", bit, n)
		}
	}
}

func TestCRCDetectsSingleBitFlip(t *testing.T) {
	rng := xrand.New(4)
	data := make([]byte, 512)
	rng.Bytes(data)
	orig32 := CRC32CGolden(data)
	orig64 := CRC64Golden(data)
	origF := Fletcher64Golden(data)
	for trial := 0; trial < 100; trial++ {
		i := rng.Intn(len(data))
		bit := byte(1) << uint(rng.Intn(8))
		data[i] ^= bit
		if CRC32CGolden(data) == orig32 {
			t.Fatal("CRC32C missed a single-bit flip")
		}
		if CRC64Golden(data) == orig64 {
			t.Fatal("CRC64 missed a single-bit flip")
		}
		if Fletcher64Golden(data) == origF {
			t.Fatal("Fletcher64 missed a single-bit flip")
		}
		data[i] ^= bit
	}
}

func TestCRCEmptyAndDistinct(t *testing.T) {
	if CRC32CGolden(nil) != 0 {
		t.Fatalf("CRC32C(nil) = %#x", CRC32CGolden(nil))
	}
	if CRC64Golden([]byte("a")) == CRC64Golden([]byte("b")) {
		t.Fatal("CRC64 collision on distinct bytes")
	}
}

func TestChecksumOnDefectiveCoreCanBeWrong(t *testing.T) {
	// The checksummer itself runs on a core; a defective ALU corrupts it.
	// This is why end-to-end checks must be verified on a *different* core.
	d := fault.Defect{
		ID: "d", Unit: fault.UnitALU, Deterministic: true,
		Kind: fault.CorruptBitFlip, BitPos: 2,
	}
	e := engine.New(fault.NewCore("m", xrand.New(5), d))
	data := []byte("hello, mercurial world")
	if CRC32C(e, data) == CRC32CGolden(data) {
		t.Fatal("defective-core CRC matched golden; defect had no effect")
	}
}

func TestQuickFletcherOrderSensitive(t *testing.T) {
	// Unlike a plain sum, Fletcher must detect byte swaps.
	f := func(a, b byte) bool {
		if a == b {
			return true
		}
		x := Fletcher64Golden([]byte{a, 0, 0, 0, b, 0, 0, 0})
		y := Fletcher64Golden([]byte{b, 0, 0, 0, a, 0, 0, 0})
		return x != y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCRC32CEngine(b *testing.B) {
	e := healthyEngine()
	data := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		CRC32C(e, data)
	}
}

func BenchmarkCRC32CGolden(b *testing.B) {
	data := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		CRC32CGolden(data)
	}
}
