package corpus

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Atomic is the atomic-unit torture workload. The Lock workload checks
// lock *semantics*, which a store-value-corrupting CAS can survive (the
// lock still excludes — a real coverage gap found while building the
// forensics classifier); this workload checks the atomic unit's *values*
// directly: every FetchAdd and CAS result is verified against a native
// mirror, so dropped updates and corrupted stores are both caught.
type Atomic struct {
	// Ops is the number of atomic operations per run.
	Ops int
}

// NewAtomic returns an Atomic workload with the given op count.
func NewAtomic(ops int) *Atomic { return &Atomic{Ops: ops} }

// Name implements Workload.
func (*Atomic) Name() string { return "atomic-torture" }

// Units implements Workload.
func (*Atomic) Units() []fault.Unit { return []fault.Unit{fault.UnitAtomic} }

var atomicUnits = unitsOf(&Atomic{})

// Run implements Workload.
func (w *Atomic) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		if c := e.Core(); !c.AnyArmed(atomicUnits) {
			// One FetchAdd per delta drawn, one CAS per ladder step and
			// the failed CAS.
			for i := 0; i < w.Ops; i++ {
				rng.Uint64n(1 << 32)
				c.OpCount[fault.OpAtomic] += 2
			}
			c.OpCount[fault.OpAtomic]++
			return ""
		}
		var v uint64
		var want uint64
		for i := 0; i < w.Ops; i++ {
			delta := rng.Uint64n(1 << 32)
			old := e.FetchAdd(&v, delta)
			if old != want {
				return fmt.Sprintf("op %d: FetchAdd returned %#x want %#x", i, old, want)
			}
			want += delta
			if v != want {
				return fmt.Sprintf("op %d: FetchAdd stored %#x want %#x", i, v, want)
			}
		}
		// CAS ladder: each step must observe and store exact values.
		var c uint64
		for i := uint64(1); i <= uint64(w.Ops); i++ {
			if !e.CAS(&c, i-1, i) {
				return fmt.Sprintf("cas %d: spurious failure at %#x", i, c)
			}
			if c != i {
				return fmt.Sprintf("cas %d: stored %#x want %#x", i, c, i)
			}
		}
		// Failed-CAS path must not mutate.
		before := c
		if e.CAS(&c, before+1, 0) {
			return "cas: succeeded against wrong expected value"
		}
		if c != before {
			return fmt.Sprintf("failed cas mutated value: %#x -> %#x", before, c)
		}
		return ""
	})
}
