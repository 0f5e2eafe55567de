package corpus

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Hash is the hashing workload: FNV-1a through the engine's multiply and
// logic units, compared against a native mirror.
type Hash struct {
	// Bytes is the input size per run.
	Bytes int
}

// NewHash returns a Hash workload over the given input size.
func NewHash(n int) *Hash { return &Hash{Bytes: n} }

// Name implements Workload.
func (*Hash) Name() string { return "hash-fnv" }

// Units implements Workload.
func (*Hash) Units() []fault.Unit { return []fault.Unit{fault.UnitALU, fault.UnitMul} }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvGolden is the native FNV-1a mirror.
func fnvGolden(data []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// Run implements Workload.
func (w *Hash) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		data := make([]byte, w.Bytes)
		rng.Bytes(data)
		if ecc.CountFNV(e.Core(), 2*len(data)) {
			// Both passes run natively and agree with fnvGolden.
			return ""
		}
		h := uint64(fnvOffset)
		for _, b := range data {
			h = e.Xor64(h, uint64(b))
			h = e.Mul64(h, fnvPrime)
		}
		if want := fnvGolden(data); h != want {
			return fmt.Sprintf("fnv: got %#x want %#x", h, want)
		}
		// A second pass over the same data must agree with the first —
		// catches intermittent defects that fire on one pass only.
		h2 := uint64(fnvOffset)
		for _, b := range data {
			h2 = e.Xor64(h2, uint64(b))
			h2 = e.Mul64(h2, fnvPrime)
		}
		if h2 != h {
			return fmt.Sprintf("fnv: unstable hash %#x vs %#x", h, h2)
		}
		return ""
	})
}

// CRC is the checksum workload: CRC32-C and CRC-64 through the engine,
// compared against golden values.
type CRC struct {
	// Bytes is the input size per run.
	Bytes int
}

// NewCRC returns a CRC workload over the given input size.
func NewCRC(n int) *CRC { return &CRC{Bytes: n} }

// Name implements Workload.
func (*CRC) Name() string { return "crc" }

// Units implements Workload.
func (*CRC) Units() []fault.Unit { return []fault.Unit{fault.UnitALU} }

// Run implements Workload.
func (w *CRC) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		data := make([]byte, w.Bytes)
		rng.Bytes(data)
		if got, want := ecc.CRC32C(e, data), ecc.CRC32CGolden(data); got != want {
			return fmt.Sprintf("crc32c: got %#x want %#x", got, want)
		}
		if got, want := ecc.CRC64(e, data), ecc.CRC64Golden(data); got != want {
			return fmt.Sprintf("crc64: got %#x want %#x", got, want)
		}
		if got, want := ecc.Fletcher64(e, data), ecc.Fletcher64Golden(data); got != want {
			return fmt.Sprintf("fletcher64: got %#x want %#x", got, want)
		}
		return ""
	})
}
