package corpus

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// CryptoRoundtrip encrypts and decrypts blocks on the same core and checks
// that the roundtrip is the identity. Deliberately weak: it cannot detect
// the §2 self-inverting defect, because on the defective core
// decrypt(encrypt(x)) == x even though the ciphertext is wrong. The paper's
// point — some CEEs are only visible by checking against results computed
// elsewhere — falls out of comparing this workload with CryptoKnownAnswer.
type CryptoRoundtrip struct {
	// Blocks is the number of 64-bit blocks per run.
	Blocks int
}

// NewCryptoRoundtrip returns the roundtrip-only crypto workload.
func NewCryptoRoundtrip(blocks int) *CryptoRoundtrip {
	return &CryptoRoundtrip{Blocks: blocks}
}

// Name implements Workload.
func (*CryptoRoundtrip) Name() string { return "crypto-roundtrip" }

// Units implements Workload.
func (*CryptoRoundtrip) Units() []fault.Unit { return []fault.Unit{fault.UnitCrypto} }

// Run implements Workload.
func (w *CryptoRoundtrip) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		key := rng.Uint64()
		if c := e.Core(); !c.AnyArmed(cryptoUnits) {
			cryptoNative(c, rng, w.Blocks)
			return ""
		}
		for i := 0; i < w.Blocks; i++ {
			x := rng.Uint64()
			ct := e.CryptoEncrypt64(x, key)
			if got := e.CryptoDecrypt64(ct, key); got != x {
				return fmt.Sprintf("block %d: roundtrip %#x -> %#x", i, x, got)
			}
		}
		return ""
	})
}

// cryptoUnits gates both crypto workloads, which issue ops on the same
// unit.
var cryptoUnits = unitsOf(&CryptoRoundtrip{})

// cryptoNative makes a crypto workload's block draws and counts its ops,
// one encryption and one decryption per block, on a core whose crypto
// unit is unarmed.
func cryptoNative(c *fault.Core, rng *xrand.RNG, blocks int) {
	for i := 0; i < blocks; i++ {
		rng.Uint64()
		c.OpCount[fault.OpCrypto] += 2
	}
}

// CryptoKnownAnswer encrypts blocks and compares the ciphertext against the
// golden cipher — the strong check that does catch self-inverting defects.
type CryptoKnownAnswer struct {
	// Blocks is the number of 64-bit blocks per run.
	Blocks int
}

// NewCryptoKnownAnswer returns the known-answer crypto workload.
func NewCryptoKnownAnswer(blocks int) *CryptoKnownAnswer {
	return &CryptoKnownAnswer{Blocks: blocks}
}

// Name implements Workload.
func (*CryptoKnownAnswer) Name() string { return "crypto-known-answer" }

// Units implements Workload.
func (*CryptoKnownAnswer) Units() []fault.Unit { return []fault.Unit{fault.UnitCrypto} }

// Run implements Workload.
func (w *CryptoKnownAnswer) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		key := rng.Uint64()
		if c := e.Core(); !c.AnyArmed(cryptoUnits) {
			cryptoNative(c, rng, w.Blocks)
			return ""
		}
		for i := 0; i < w.Blocks; i++ {
			x := rng.Uint64()
			ct := e.CryptoEncrypt64(x, key)
			if want := engine.GoldenCryptoEncrypt64(x, key); ct != want {
				return fmt.Sprintf("block %d: ciphertext %#x want %#x", i, ct, want)
			}
			pt := e.CryptoDecrypt64(ct, key)
			if pt != x {
				return fmt.Sprintf("block %d: plaintext %#x want %#x", i, pt, x)
			}
		}
		return ""
	})
}
