// Package engine provides the operation-level faulty execution engine: the
// software analogue of running real code on a (possibly mercurial) core.
//
// Every workload in this repository performs its arithmetic, vector, copy,
// crypto, atomic, and memory operations through an Engine bound to a
// fault.Core. On a healthy core the engine computes exact results; on a
// defective core the fault model may corrupt individual results, exactly
// the software-visible contract of a CEE: "the instructions malfunctioned
// in a way that could only be detected by checking the results of these
// instructions against the expected results" (§1).
//
// This is the "fault injector for testing software resilience" that §9 of
// the paper calls for.
package engine

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/fault"
)

// Trap describes a synchronous fault raised by an operation — the
// "fail-noisy" outcomes of §2 (exceptions, segmentation faults) as opposed
// to silent wrong answers.
type Trap struct {
	Kind string // "div-by-zero", "segfault"
	Op   fault.OpClass
	Addr uint64
}

func (t *Trap) Error() string {
	return fmt.Sprintf("trap: %s during %v (addr=%#x)", t.Kind, t.Op, t.Addr)
}

// Engine executes operations on one core. It is not safe for concurrent
// use; logical concurrency (the lock-semantics tests) is simulated
// deterministically by the corpus.
type Engine struct {
	core *fault.Core
	// trap records the first synchronous fault since the last ClearTrap.
	trap *Trap
}

// New binds an engine to a core.
func New(core *fault.Core) *Engine {
	return &Engine{core: core}
}

// Core returns the underlying fault-model core.
func (e *Engine) Core() *fault.Core { return e.core }

// Trapped returns the first trap since the last ClearTrap, or nil.
func (e *Engine) Trapped() *Trap { return e.trap }

// ClearTrap clears trap state (used between workload runs).
func (e *Engine) ClearTrap() { e.trap = nil }

func (e *Engine) raise(kind string, op fault.OpClass, addr uint64) {
	if e.trap == nil {
		e.trap = &Trap{Kind: kind, Op: op, Addr: addr}
	}
}

// alu applies the defect decision to a computed result for op with first
// operand a.
func (e *Engine) alu(op fault.OpClass, a, result uint64) uint64 {
	if d := e.core.Decide(op, a); d != nil {
		return d.CorruptResult(result)
	}
	return result
}

// Add64 returns a + b (possibly corrupted).
func (e *Engine) Add64(a, b uint64) uint64 { return e.alu(fault.OpAdd, a, a+b) }

// Sub64 returns a - b.
func (e *Engine) Sub64(a, b uint64) uint64 { return e.alu(fault.OpSub, a, a-b) }

// Mul64 returns a * b (low 64 bits).
func (e *Engine) Mul64(a, b uint64) uint64 { return e.alu(fault.OpMul, a, a*b) }

// Div64 returns a / b and a % b. Division by zero raises a trap and
// returns zeros — fail-noisy, like the hardware.
func (e *Engine) Div64(a, b uint64) (q, r uint64) {
	if b == 0 {
		e.raise("div-by-zero", fault.OpDiv, 0)
		return 0, 0
	}
	q = e.alu(fault.OpDiv, a, a/b)
	return q, a - q*b
}

// Or64 returns a | b.
func (e *Engine) Or64(a, b uint64) uint64 { return e.alu(fault.OpLogic, a, a|b) }

// Xor64 returns a ^ b.
func (e *Engine) Xor64(a, b uint64) uint64 { return e.alu(fault.OpLogic, a, a^b) }

// Shl64 returns a << (k & 63).
func (e *Engine) Shl64(a uint64, k uint) uint64 { return e.alu(fault.OpShift, a, a<<(k&63)) }

// Shr64 returns a >> (k & 63).
func (e *Engine) Shr64(a uint64, k uint) uint64 { return e.alu(fault.OpShift, a, a>>(k&63)) }

// Less64 reports a < b through the compare unit. A corrupted compare
// returns the wrong branch — the control-flow corruption path.
func (e *Engine) Less64(a, b uint64) bool {
	res := uint64(0)
	if a < b {
		res = 1
	}
	return e.alu(fault.OpCmp, a, res)&1 != 0
}

// Equal64 reports a == b through the compare unit.
func (e *Engine) Equal64(a, b uint64) bool {
	res := uint64(0)
	if a == b {
		res = 1
	}
	return e.alu(fault.OpCmp, a, res)&1 != 0
}

// FAdd returns a + b in float64, routed through the FPU.
func (e *Engine) FAdd(a, b float64) float64 {
	bits := math.Float64bits(a + b)
	return math.Float64frombits(e.alu(fault.OpFAdd, math.Float64bits(a), bits))
}

// FMul returns a * b in float64.
func (e *Engine) FMul(a, b float64) float64 {
	bits := math.Float64bits(a * b)
	return math.Float64frombits(e.alu(fault.OpFMul, math.Float64bits(a), bits))
}

// Bulk operations (the Vec ops and Copy) compute natively when their op
// class is not armed on the core, then add the exact number of ops the
// per-lane loop would have issued. Decide would have returned nil for
// each of those ops without drawing a random number, so results, counts,
// corruption events and RNG streams are the same either way; the per-op
// loop runs only where a defect can fire.

// VecXor computes dst[i] = a[i] ^ b[i] lane by lane through the vector
// unit. Slices must have equal length.
func (e *Engine) VecXor(dst, a, b []uint64) {
	if !e.core.Armed(fault.OpVec) {
		for i := range a {
			dst[i] = a[i] ^ b[i]
		}
		e.core.OpCount[fault.OpVec] += uint64(len(a))
		return
	}
	for i := range a {
		dst[i] = e.alu(fault.OpVec, a[i], a[i]^b[i])
	}
}

// VecAdd computes dst[i] = a[i] + b[i] through the vector unit.
func (e *Engine) VecAdd(dst, a, b []uint64) {
	if !e.core.Armed(fault.OpVec) {
		for i := range a {
			dst[i] = a[i] + b[i]
		}
		e.core.OpCount[fault.OpVec] += uint64(len(a))
		return
	}
	for i := range a {
		dst[i] = e.alu(fault.OpVec, a[i], a[i]+b[i])
	}
}

// VecSum reduces a through the vector unit.
func (e *Engine) VecSum(a []uint64) uint64 {
	var s uint64
	if !e.core.Armed(fault.OpVec) {
		for _, v := range a {
			s += v
		}
		e.core.OpCount[fault.OpVec] += uint64(len(a))
		return s
	}
	for i := range a {
		s = e.alu(fault.OpVec, a[i], s+a[i])
	}
	return s
}

// Copy copies src to dst through the bulk-copy data path (which shares the
// vector unit, per §5), 8 bytes at a time. It returns the number of bytes
// copied (min of the two lengths).
func (e *Engine) Copy(dst, src []byte) int {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	if !e.core.Armed(fault.OpCopy) && !startsInside(dst[:n], src[:n]) {
		copy(dst[:n], src[:n])
		e.core.OpCount[fault.OpCopy] += uint64((n + 7) / 8)
		return n
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		w := le64(src[i:])
		w2 := e.alu(fault.OpCopy, w, w)
		putLE64(dst[i:], w2)
	}
	if i < n {
		// Tail: one word op over the remaining bytes.
		var buf [8]byte
		copy(buf[:], src[i:n])
		w := le64(buf[:])
		w2 := e.alu(fault.OpCopy, w, w)
		putLE64(buf[:], w2)
		copy(dst[i:n], buf[:n-i])
	}
	return n
}

// startsInside reports whether dst begins strictly inside src: the one
// aliasing under which Copy's forward word loop re-reads bytes it has
// already written, so its result differs from the memmove that copy does.
// Copy keeps the word loop for it.
func startsInside(dst, src []byte) bool {
	if len(dst) == 0 || len(src) == 0 {
		return false
	}
	d := uintptr(unsafe.Pointer(unsafe.SliceData(dst)))
	s := uintptr(unsafe.Pointer(unsafe.SliceData(src)))
	return d > s && d < s+uintptr(len(src))
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// --- Crypto accelerator -------------------------------------------------
//
// The crypto unit implements a 64-bit ARX block cipher as a single
// accelerator operation, mirroring the paper's observation that CPUs are
// becoming "sets of discrete accelerators" whose defects are highly
// specific. A CorruptPreXORInput defect XORs the *plaintext input* of
// encryption and the *output* of decryption, reproducing §2's
// self-inverting AES mis-computation.

const (
	cryptoRounds = 8
	cryptoMulC   = 0x9e3779b97f4a7c15 // odd, hence invertible mod 2^64
	cryptoMulInv = 0xf1de83e19937733d // cryptoMulC^-1 mod 2^64
)

// cryptoE is the golden encryption of one block under key k.
func cryptoE(x, k uint64) uint64 {
	for r := 0; r < cryptoRounds; r++ {
		x ^= k + uint64(r)*0xbf58476d1ce4e5b9
		x = x<<17 | x>>47
		x *= cryptoMulC
	}
	return x
}

// cryptoD is the golden inverse of cryptoE.
func cryptoD(y, k uint64) uint64 {
	for r := cryptoRounds - 1; r >= 0; r-- {
		y *= cryptoMulInv
		y = y>>17 | y<<47
		y ^= k + uint64(r)*0xbf58476d1ce4e5b9
	}
	return y
}

// GoldenCryptoEncrypt64 is the defect-free reference encryption, used by
// known-answer self-checks and cross-core verification.
func GoldenCryptoEncrypt64(x, k uint64) uint64 { return cryptoE(x, k) }

// GoldenCryptoDecrypt64 is the defect-free reference decryption.
func GoldenCryptoDecrypt64(y, k uint64) uint64 { return cryptoD(y, k) }

// CryptoEncrypt64 encrypts one 64-bit block under key k through the crypto
// accelerator.
func (e *Engine) CryptoEncrypt64(x, k uint64) uint64 {
	if d := e.core.Decide(fault.OpCrypto, x); d != nil {
		if d.Kind == fault.CorruptPreXORInput {
			return cryptoE(x^d.Mask, k)
		}
		return d.CorruptResult(cryptoE(x, k))
	}
	return cryptoE(x, k)
}

// CryptoDecrypt64 decrypts one 64-bit block under key k. Note that the
// pattern gate of a PreXOR defect is evaluated against the *decrypted
// plaintext*, matching the hardware view where the defective stage sits on
// the plaintext side of the pipeline.
func (e *Engine) CryptoDecrypt64(y, k uint64) uint64 {
	plain := cryptoD(y, k)
	if d := e.core.Decide(fault.OpCrypto, plain); d != nil {
		if d.Kind == fault.CorruptPreXORInput {
			return plain ^ d.Mask
		}
		return d.CorruptResult(plain)
	}
	return plain
}

// --- Atomics -------------------------------------------------------------

// CAS performs a compare-and-swap on *p. A CorruptDropUpdate defect makes
// the CAS report success without performing the store — the lock-semantics
// violation of §2. Other corruption kinds corrupt the stored value.
func (e *Engine) CAS(p *uint64, old, new uint64) bool {
	if *p != old {
		// The failure path still consumes the atomic unit.
		e.core.Decide(fault.OpAtomic, old)
		return false
	}
	if d := e.core.Decide(fault.OpAtomic, old); d != nil {
		if d.Kind == fault.CorruptDropUpdate {
			return true // lies: reports success, stores nothing
		}
		*p = d.CorruptResult(new)
		return true
	}
	*p = new
	return true
}

// FetchAdd atomically adds delta to *p and returns the old value, subject
// to the same defect model as CAS.
func (e *Engine) FetchAdd(p *uint64, delta uint64) uint64 {
	old := *p
	if d := e.core.Decide(fault.OpAtomic, old); d != nil {
		if d.Kind == fault.CorruptDropUpdate {
			return old // update lost
		}
		*p = d.CorruptResult(old + delta)
		return old
	}
	*p = old + delta
	return old
}

// --- Memory --------------------------------------------------------------

// Memory is a word-addressed memory region for load/store workloads.
type Memory struct {
	Words []uint64
}

// NewMemory returns a memory of n words.
func NewMemory(n int) *Memory { return &Memory{Words: make([]uint64, n)} }

// Load reads word idx through the load/store unit. An address-path defect
// (CorruptOffByOne) perturbs the effective address: the load silently reads
// a neighbouring word, or traps if the bad address is out of range — the
// wrong-answers-and-exceptions mix of §2. Data-path defects corrupt the
// loaded value.
func (e *Engine) Load(m *Memory, idx uint64) uint64 {
	eff := idx
	var d *fault.Defect
	if d = e.core.Decide(fault.OpLoad, idx); d != nil && d.Kind == fault.CorruptOffByOne {
		eff = uint64(int64(idx) + d.Delta)
	}
	if eff >= uint64(len(m.Words)) {
		e.raise("segfault", fault.OpLoad, eff)
		return 0
	}
	v := m.Words[eff]
	if d != nil && d.Kind != fault.CorruptOffByOne {
		v = d.CorruptResult(v)
	}
	return v
}

// Store writes word idx through the load/store unit, with the same
// address/data defect semantics as Load. A wrong-address store corrupts
// *neighbouring* state — the blast-radius pattern behind §2's kernel
// crashes.
func (e *Engine) Store(m *Memory, idx, v uint64) {
	eff := idx
	var d *fault.Defect
	if d = e.core.Decide(fault.OpStore, idx); d != nil && d.Kind == fault.CorruptOffByOne {
		eff = uint64(int64(idx) + d.Delta)
	}
	if eff >= uint64(len(m.Words)) {
		e.raise("segfault", fault.OpStore, eff)
		return
	}
	if d != nil && d.Kind != fault.CorruptOffByOne {
		v = d.CorruptResult(v)
	}
	m.Words[eff] = v
}
