package corpus

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Lock is the locking workload, reproducing §2's "violations of lock
// semantics leading to application data corruption". It simulates several
// logical threads incrementing a shared counter under a CAS spinlock, with
// a deterministic randomized interleaving. A defective atomic unit that
// reports CAS success without storing lets two threads into the critical
// section, losing updates: the final count disagrees with the expected
// total.
//
// The simulation is single-goroutine so runs are exactly reproducible; the
// thread interleaving lives in the scheduler, not in Go's runtime.
type Lock struct {
	// Threads is the number of logical threads.
	Threads int
	// Increments is the number of increments each thread performs.
	Increments int
}

// NewLock returns a Lock workload with the given shape.
func NewLock(threads, increments int) *Lock {
	return &Lock{Threads: threads, Increments: increments}
}

// Name implements Workload.
func (*Lock) Name() string { return "lock-semantics" }

// Units implements Workload.
func (*Lock) Units() []fault.Unit { return []fault.Unit{fault.UnitAtomic, fault.UnitALU} }

// thread states for the critical-section state machine.
const (
	stTryLock = iota
	stRead
	stWrite
	stUnlock
	stDone
)

var lockUnits = unitsOf(&Lock{})

// Run implements Workload. Where neither of Lock's units is armed, its
// CAS and add run natively and are counted after the loop; the scheduler
// draws are the same.
func (w *Lock) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		c := e.Core()
		native := !c.AnyArmed(lockUnits)
		var cas, adds uint64 // native ops
		var lock, counter uint64
		type thread struct {
			state int
			left  int
			local uint64 // value read inside the critical section
		}
		threads := make([]*thread, w.Threads)
		for i := range threads {
			threads[i] = &thread{state: stTryLock, left: w.Increments}
		}
		live := w.Threads
		inCritical := 0
		mutualExclusionViolated := false
		for live > 0 {
			th := threads[rng.Intn(w.Threads)]
			switch th.state {
			case stTryLock:
				var acquired bool
				if native {
					cas++
					acquired = lock == 0
					lock = 1 // held after the CAS, whoever holds it
				} else {
					acquired = e.CAS(&lock, 0, 1)
				}
				if acquired {
					// We believe we hold the lock. If the CAS was
					// dropped by the defect, so can someone else.
					inCritical++
					if inCritical > 1 {
						mutualExclusionViolated = true
					}
					th.state = stRead
				}
			case stRead:
				th.local = counter
				th.state = stWrite
			case stWrite:
				// Non-atomic read-modify-write: safe only under the lock.
				if native {
					adds++
					counter = th.local + 1
				} else {
					counter = e.Add64(th.local, 1)
				}
				th.state = stUnlock
			case stUnlock:
				inCritical--
				lock = 0
				th.left--
				if th.left == 0 {
					th.state = stDone
					live--
				} else {
					th.state = stTryLock
				}
			case stDone:
				// Spurious wakeup of a finished thread; ignore.
			}
		}
		c.OpCount[fault.OpAtomic] += cas
		c.OpCount[fault.OpAdd] += adds
		want := uint64(w.Threads * w.Increments)
		if counter != want {
			return fmt.Sprintf("lost updates: counter=%d want %d (exclusion violated: %v)",
				counter, want, mutualExclusionViolated)
		}
		if mutualExclusionViolated {
			// Updates happened to survive, but two threads were inside
			// the critical section — still a detected violation.
			return "mutual exclusion violated without lost update"
		}
		return ""
	})
}

// Mem is the memory-path workload: writes a recognizable pattern through
// the engine's store path, reads it back through the load path, and checks
// every word. Address-path defects silently smear state onto neighbouring
// words or trap; data-path defects corrupt values in flight.
type Mem struct {
	// Words is the memory size in 64-bit words.
	Words int
}

// NewMem returns a Mem workload over the given number of words.
func NewMem(words int) *Mem { return &Mem{Words: words} }

// Name implements Workload.
func (*Mem) Name() string { return "mem-pattern" }

// Units implements Workload.
func (*Mem) Units() []fault.Unit { return []fault.Unit{fault.UnitLSU} }

// memPattern is the expected value of word i for a given seed.
func memPattern(seed, i uint64) uint64 {
	x := seed ^ i*0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xff51afd7ed558ccd
	return x ^ x>>32
}

var memUnits = unitsOf(&Mem{})

// Run implements Workload.
func (w *Mem) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		seed := rng.Uint64()
		if c := e.Core(); !c.AnyArmed(memUnits) {
			// One store and one load per word.
			c.OpCount[fault.OpStore] += uint64(w.Words)
			c.OpCount[fault.OpLoad] += uint64(w.Words)
			return ""
		}
		m := engine.NewMemory(w.Words)
		for i := 0; i < w.Words; i++ {
			e.Store(m, uint64(i), memPattern(seed, uint64(i)))
		}
		for i := 0; i < w.Words; i++ {
			got := e.Load(m, uint64(i))
			if want := memPattern(seed, uint64(i)); got != want {
				return fmt.Sprintf("word %d: got %#x want %#x", i, got, want)
			}
		}
		return ""
	})
}
