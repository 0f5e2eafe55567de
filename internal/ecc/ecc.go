// Package ecc implements the end-to-end integrity codes that the paper's
// application-level defenses rely on (§3, §6): CRC32-C, CRC-64, Fletcher-64,
// the FNV-1a record fingerprint and a 64-bit mixing finalizer.
//
// Each code comes in two forms: an engine-routed form whose bitwise
// operations execute through an engine.Engine (so checksumming itself can
// be victimized by a mercurial core, as in real life), and a Golden form
// computed natively for ground truth. The engine-routed form on a healthy
// core always equals the Golden form; tests enforce this.
//
// CRC32C, CRC64, FNV64a and Fletcher64 pay for the engine only where a
// defect can fire: when none of the op classes they issue is armed on the
// engine's core (fault.Core.Armed), they compute the Golden form and add
// the exact per-class op counts the byte loop would have issued. Such ops
// draw no random numbers and cannot corrupt, so results, counters,
// corruption events and RNG streams are identical to the byte loop's.
package ecc

import (
	"hash/crc32"
	"hash/crc64"

	"repro/internal/engine"
	"repro/internal/fault"
)

// CRC-32C (Castagnoli), reflected polynomial 0x82F63B78 — the polynomial
// used by storage systems like the paper's Colossus example.
const crc32cPoly = 0x82F63B78

var (
	crc32cTable = makeCRC32Table(crc32cPoly)
	// castagnoli is hash/crc32's table for the same polynomial; Checksum
	// over it uses the CPU's CRC32 instruction where there is one.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

func makeCRC32Table(poly uint32) *[256]uint32 {
	var t [256]uint32
	for i := range t {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return &t
}

// CRC32C computes the Castagnoli CRC through the engine's logic/shift units:
// per byte two OpLogic and one OpShift.
func CRC32C(e *engine.Engine, data []byte) uint32 {
	if c := e.Core(); !c.Armed(fault.OpLogic) && !c.Armed(fault.OpShift) {
		countCRC(c, len(data))
		return CRC32CGolden(data)
	}
	crc := uint64(0xFFFFFFFF)
	for _, b := range data {
		idx := e.Xor64(crc, uint64(b)) & 0xFF
		crc = e.Xor64(e.Shr64(crc, 8), uint64(crc32cTable[idx]))
	}
	return uint32(crc ^ 0xFFFFFFFF)
}

// CRC32CGolden computes the same CRC natively.
func CRC32CGolden(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// countCRC adds the ops a byte-loop CRC over n bytes issues.
func countCRC(c *fault.Core, n int) {
	c.OpCount[fault.OpLogic] += 2 * uint64(n)
	c.OpCount[fault.OpShift] += uint64(n)
}

// CountFNV reports whether an FNV-1a hash over n bytes runs natively on c,
// that is, whether neither op class it issues is armed. If so it adds the
// ops the byte loop would have issued (n OpLogic, n OpMul), so the caller
// may use FNV64aGolden, or a fingerprint of the same bytes it already has,
// in place of FNV64a; if not it adds nothing and the caller must call
// FNV64a.
func CountFNV(c *fault.Core, n int) bool {
	if c.Armed(fault.OpLogic) || c.Armed(fault.OpMul) {
		return false
	}
	c.OpCount[fault.OpLogic] += uint64(n)
	c.OpCount[fault.OpMul] += uint64(n)
	return true
}

// CRC-64 with the ECMA-182 reflected polynomial.
const crc64Poly = 0xC96C5795D7870F42

var (
	crc64Table = makeCRC64Table(crc64Poly)
	ecma       = crc64.MakeTable(crc64.ECMA)
)

func makeCRC64Table(poly uint64) *[256]uint64 {
	var t [256]uint64
	for i := range t {
		crc := uint64(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return &t
}

// CRC64 computes the ECMA CRC-64 through the engine, with the same per-byte
// ops as CRC32C.
func CRC64(e *engine.Engine, data []byte) uint64 {
	if c := e.Core(); !c.Armed(fault.OpLogic) && !c.Armed(fault.OpShift) {
		countCRC(c, len(data))
		return CRC64Golden(data)
	}
	crc := ^uint64(0)
	for _, b := range data {
		idx := e.Xor64(crc, uint64(b)) & 0xFF
		crc = e.Xor64(e.Shr64(crc, 8), crc64Table[idx])
	}
	return ^crc
}

// CRC64Golden computes the same CRC natively.
func CRC64Golden(data []byte) uint64 { return crc64.Checksum(data, ecma) }

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNV64a computes the FNV-1a hash of data through the engine: per byte one
// OpLogic (the xor) and one OpMul. It is the record fingerprint a kvdb
// replica's secondary index is keyed by, so a defective logic or multiply
// unit mis-indexes rows (§2).
func FNV64a(e *engine.Engine, data []byte) uint64 {
	if CountFNV(e.Core(), len(data)) {
		return FNV64aGolden(data)
	}
	h := uint64(fnvOffset)
	for _, b := range data {
		h = e.Xor64(h, uint64(b))
		h = e.Mul64(h, fnvPrime)
	}
	return h
}

// FNV64aGolden computes the same hash natively.
func FNV64aGolden(data []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// Fletcher64 computes a Fletcher-style checksum over 32-bit words (zero
// padded) through the engine's adder: per word two OpAdd.
func Fletcher64(e *engine.Engine, data []byte) uint64 {
	if c := e.Core(); !c.Armed(fault.OpAdd) {
		c.OpCount[fault.OpAdd] += 2 * uint64((len(data)+3)/4)
		return Fletcher64Golden(data)
	}
	var s1, s2 uint64
	const mod = 0xFFFFFFFF
	for i := 0; i < len(data); i += 4 {
		var w uint64
		for j := 0; j < 4 && i+j < len(data); j++ {
			w |= uint64(data[i+j]) << (8 * uint(j))
		}
		s1 = e.Add64(s1, w) % mod
		s2 = e.Add64(s2, s1) % mod
	}
	return s2<<32 | s1
}

// Fletcher64Golden computes the same checksum natively.
func Fletcher64Golden(data []byte) uint64 {
	var s1, s2 uint64
	const mod = 0xFFFFFFFF
	for i := 0; i < len(data); i += 4 {
		var w uint64
		for j := 0; j < 4 && i+j < len(data); j++ {
			w |= uint64(data[i+j]) << (8 * uint(j))
		}
		s1 = (s1 + w) % mod
		s2 = (s2 + s1) % mod
	}
	return s2<<32 | s1
}

// Mix64 applies a SplitMix64-style avalanche finalizer through the engine:
// the cheapest whole-word integrity transform, used to fingerprint records.
func Mix64(e *engine.Engine, x uint64) uint64 {
	x = e.Xor64(x, e.Shr64(x, 30))
	x = e.Mul64(x, 0xbf58476d1ce4e5b9)
	x = e.Xor64(x, e.Shr64(x, 27))
	x = e.Mul64(x, 0x94d049bb133111eb)
	return e.Xor64(x, e.Shr64(x, 31))
}

// Mix64Golden is the native form of Mix64.
func Mix64Golden(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
