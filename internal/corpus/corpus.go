// Package corpus implements the screening test corpus of §2: "real-code
// snippets, interesting libraries (e.g., compression, hash, math,
// cryptography, copying, locking ...), and specially-written tests".
//
// Every workload executes its operations through an engine.Engine bound to
// the core under test, checks its own results against golden values
// computed natively, and reports a verdict. On a mercurial core a workload
// may report a wrong answer, a trap, or — the dangerous case — silently
// pass despite the defect (insufficient coverage, the paper's central
// screening challenge).
//
// A workload pays for the engine only where a defect can fire. When none
// of the units it issues ops on (its Units) is armed on the core
// (fault.Core.AnyArmed), it runs natively: it makes the same input draws
// in the same order and adds the exact per-class op counts the engine
// loop would have issued, through the same run wrapper. Decide returns
// nil for each of those ops without drawing a random number, so verdicts,
// Result.Ops, counters, corruption events and RNG streams are identical
// either way; the engine loop runs only on cores where one of its units is
// armed.
package corpus

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Verdict classifies one workload run.
type Verdict int

const (
	// Pass means all self-checks succeeded.
	Pass Verdict = iota
	// WrongAnswer means a self-check caught a computation error — a
	// detected CEE.
	WrongAnswer
	// Trapped means the run raised a synchronous fault (exception,
	// segfault analogue) — fail-noisy rather than silent.
	Trapped
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case WrongAnswer:
		return "wrong-answer"
	case Trapped:
		return "trap"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Result is the outcome of one workload run.
type Result struct {
	Workload string
	Verdict  Verdict
	// Detail describes the first detected mismatch, for triage logs.
	Detail string
	// Ops is the number of engine operations the run consumed.
	Ops uint64
}

// Workload is one self-checking test from the corpus.
type Workload interface {
	// Name is the stable identifier used in reports.
	Name() string
	// Units lists the execution units the workload meaningfully
	// exercises; the screener uses this for coverage accounting.
	Units() []fault.Unit
	// Run executes the workload on e using rng for input generation and
	// returns a verdict. Implementations must be deterministic given
	// (engine state, rng state).
	Run(e *engine.Engine, rng *xrand.RNG) Result
}

// run wraps the common bookkeeping: trap detection, crash containment, and
// op accounting. check runs the workload body and returns a mismatch
// description or "". A panic inside the body — e.g. a corrupted compare
// driving an index out of bounds — is contained and reported as Trapped,
// mirroring §2's observation that defective cores produce both wrong
// results and crashes.
func run(e *engine.Engine, name string, check func() string) Result {
	e.ClearTrap()
	before := e.Core().TotalOps()
	detail, crashed := runContained(check)
	ops := e.Core().TotalOps() - before
	if crashed {
		return Result{Workload: name, Verdict: Trapped, Detail: detail, Ops: ops}
	}
	if tr := e.Trapped(); tr != nil {
		return Result{Workload: name, Verdict: Trapped, Detail: tr.Error(), Ops: ops}
	}
	if detail != "" {
		return Result{Workload: name, Verdict: WrongAnswer, Detail: detail, Ops: ops}
	}
	return Result{Workload: name, Verdict: Pass, Ops: ops}
}

// unitsOf is the set of w's units, the gate of its native path.
func unitsOf(w Workload) fault.UnitSet { return fault.SetOf(w.Units()...) }

func runContained(check func() string) (detail string, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			detail = fmt.Sprintf("crash: %v", r)
			crashed = true
		}
	}()
	return check(), false
}

// All returns a fresh instance of every corpus workload at default sizes.
// The order is stable.
func All() []Workload {
	return []Workload{
		NewArith(4096),
		NewHash(2048),
		NewCRC(2048),
		NewCompress(2048),
		NewCryptoRoundtrip(256),
		NewCryptoKnownAnswer(256),
		NewMatMul(12),
		NewSort(512),
		NewLock(8, 64),
		NewAtomic(256),
		NewMem(1024),
		NewVec(1024),
		NewFloat(2048),
		NewCopy(4096),
	}
}

// ByName returns the workload with the given name from All.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("corpus: unknown workload %q", name)
}
