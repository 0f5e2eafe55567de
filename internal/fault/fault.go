// Package fault models mercurial-core defects: manufacturing flaws in a
// specific execution unit of a specific core that intermittently corrupt
// the results of specific operation classes.
//
// The model follows §2 and §5 of "Cores that don't count":
//
//   - Defects are tied to an execution unit, so only certain operation
//     classes are affected, and operations that share hardware logic (the
//     paper's data-copy/vector example) are corrupted by the same defect.
//   - Activation is intermittent: a base rate modulated by operating point
//     (frequency, voltage, temperature), data patterns, and age. A few
//     defects are deterministic when the details line up.
//   - Corruption rates across defects span many orders of magnitude.
//   - Some defects are latent and only begin to fire after an onset age,
//     and may escalate ("often get worse with time").
//   - Corruptions are structured, not random: stuck bits, fixed bit-flip
//     positions, wrong lanes, dropped atomic updates, and the famous
//     self-inverting encryption defect.
package fault

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/simtime"
)

// Unit identifies an execution unit within a core.
type Unit int

// Execution units. UnitVec deliberately backs both vector arithmetic and
// bulk data copies: §5 reports a core whose data-copy and vector operations
// failed together because they share hardware logic.
const (
	UnitALU    Unit = iota // integer add/sub/logic/shift/compare
	UnitMul                // integer multiply
	UnitDiv                // integer divide
	UnitFPU                // floating point
	UnitVec                // vector arithmetic and bulk copy data path
	UnitCrypto             // crypto extension (AES-like rounds)
	UnitLSU                // load/store address and data path
	UnitAtomic             // atomic read-modify-write (CAS, fetch-add)
	numUnits
)

var unitNames = [...]string{"ALU", "MUL", "DIV", "FPU", "VEC", "CRYPTO", "LSU", "ATOMIC"}

func (u Unit) String() string {
	if u < 0 || int(u) >= len(unitNames) {
		return fmt.Sprintf("Unit(%d)", int(u))
	}
	return unitNames[u]
}

// UnitByName returns the unit with the given name (as produced by
// Unit.String, case-insensitive) — the inverse lookup scenario decoders
// and triage tools use.
func UnitByName(name string) (Unit, error) {
	for u, n := range unitNames {
		if strings.EqualFold(n, name) {
			return Unit(u), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown unit %q (have %s)", name, strings.Join(unitNames[:], ", "))
}

// OpClass identifies an operation class routed through an execution unit.
type OpClass int

// Operation classes.
const (
	OpAdd OpClass = iota
	OpSub
	OpMul
	OpDiv
	OpLogic
	OpShift
	OpCmp
	OpFAdd
	OpFMul
	OpVec
	OpCopy
	OpCrypto
	OpAtomic
	OpLoad
	OpStore
	NumOpClasses
)

var opNames = [...]string{
	"add", "sub", "mul", "div", "logic", "shift", "cmp",
	"fadd", "fmul", "vec", "copy", "crypto", "atomic", "load", "store",
}

func (o OpClass) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("OpClass(%d)", int(o))
	}
	return opNames[o]
}

// unitOf is UnitOf's table, indexed by OpClass.
var unitOf = [NumOpClasses]Unit{
	OpAdd:    UnitALU,
	OpSub:    UnitALU,
	OpMul:    UnitMul,
	OpDiv:    UnitDiv,
	OpLogic:  UnitALU,
	OpShift:  UnitALU,
	OpCmp:    UnitALU,
	OpFAdd:   UnitFPU,
	OpFMul:   UnitFPU,
	OpVec:    UnitVec,
	OpCopy:   UnitVec,
	OpCrypto: UnitCrypto,
	OpAtomic: UnitAtomic,
	OpLoad:   UnitLSU,
	OpStore:  UnitLSU,
}

// UnitOf maps each operation class to the execution unit that implements it.
func UnitOf(op OpClass) Unit { return unitOf[op] }

// OperatingPoint is the (f, V, T) state of a core. Frequency and voltage
// are coupled in real parts (DVFS); the simulator exposes both because §5
// observes their impacts vary independently per defect.
type OperatingPoint struct {
	FreqGHz  float64
	VoltageV float64
	TempC    float64
}

// Nominal is the default operating point used across the experiments.
var Nominal = OperatingPoint{FreqGHz: 3.0, VoltageV: 1.0, TempC: 60}

// Sensitivity captures how a defect's activation rate responds to the
// operating point: factor = exp(Freq*(f-3.0) + Volt*(1.0-v) + Temp*(t-60)/10).
// Positive Freq means higher frequency raises the rate; a *negative* Freq
// reproduces §5's surprising lower-frequency-is-worse defects. Zero fields
// mean insensitivity.
type Sensitivity struct {
	Freq float64
	Volt float64
	Temp float64
}

// Factor returns the multiplicative rate factor at pt.
func (s Sensitivity) Factor(pt OperatingPoint) float64 {
	return exp(s.Freq*(pt.FreqGHz-Nominal.FreqGHz) +
		s.Volt*(Nominal.VoltageV-pt.VoltageV) +
		s.Temp*(pt.TempC-Nominal.TempC)/10)
}

// exp clamps its argument to avoid Inf blowing through rate arithmetic;
// activation probabilities are clamped to [0,1] anyway.
func exp(x float64) float64 {
	if x > 40 {
		x = 40
	}
	if x < -40 {
		x = -40
	}
	return math.Exp(x)
}

// CorruptionKind enumerates the structural corruption transforms observed
// in §2's incident list.
type CorruptionKind int

const (
	// CorruptBitFlip flips bit BitPos of the result (§2: "repeated
	// bit-flips in strings, at a particular bit position").
	CorruptBitFlip CorruptionKind = iota
	// CorruptStuckBit forces bit BitPos of the result to StuckVal.
	CorruptStuckBit
	// CorruptXORMask XORs the result with Mask.
	CorruptXORMask
	// CorruptWrongLane returns the value computed for a neighbouring
	// vector lane (modelled as a rotate of the result by 8 bits).
	CorruptWrongLane
	// CorruptDropUpdate makes the operation silently not happen: an
	// atomic CAS reports success without storing, a store is lost
	// (§2: "violations of lock semantics").
	CorruptDropUpdate
	// CorruptPreXORInput applies Mask to an *input* of the operation.
	// For a block cipher this produces the self-inverting behaviour of
	// §2's deterministic AES mis-computation: E'(x)=E(x^m) and
	// D'(y)=D(y)^m compose to the identity on the same core, while
	// decryption elsewhere yields gibberish.
	CorruptPreXORInput
	// CorruptOffByOne adds Delta to the result (address-generation
	// style defects; with OpLoad/OpStore this corrupts neighbouring
	// state, the kernel-crash pattern of §2).
	CorruptOffByOne
)

var corruptionNames = [...]string{
	"bitflip", "stuckbit", "xormask", "wronglane", "dropupdate", "prexor", "offbyone",
}

func (k CorruptionKind) String() string {
	if k < 0 || int(k) >= len(corruptionNames) {
		return fmt.Sprintf("CorruptionKind(%d)", int(k))
	}
	return corruptionNames[k]
}

// KindByName returns the corruption kind with the given name (as produced
// by CorruptionKind.String, case-insensitive).
func KindByName(name string) (CorruptionKind, error) {
	for k, n := range corruptionNames {
		if strings.EqualFold(n, name) {
			return CorruptionKind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown corruption kind %q (have %s)",
		name, strings.Join(corruptionNames[:], ", "))
}

// Defect describes one manufacturing defect. A core may carry several, but
// §2 notes that typically one core of a part fails, usually with one defect.
type Defect struct {
	// ID is a stable identifier, unique within a fleet.
	ID string
	// Class is the catalog entry this defect was drawn from.
	Class string
	// Unit is the defective execution unit. All OpClasses mapping to
	// this unit are at risk.
	Unit Unit
	// BaseRate is the per-operation activation probability at the
	// nominal operating point once past onset. Spans many orders of
	// magnitude across defects (§2).
	BaseRate float64
	// Deterministic defects fire on every matching operation once the
	// pattern matches (the "in just a few cases, we can reproduce the
	// errors deterministically" case).
	Deterministic bool
	// Sens modulates BaseRate by operating point.
	Sens Sensitivity
	// PatternMask/PatternVal: if PatternMask != 0, the defect only
	// arms when (operandA & PatternMask) == PatternVal — data-pattern
	// sensitivity (§2: "data patterns can affect corruption rates").
	PatternMask, PatternVal uint64
	// Kind selects the corruption transform; BitPos, StuckVal, Mask,
	// Delta parameterize it.
	Kind     CorruptionKind
	BitPos   uint
	StuckVal uint
	Mask     uint64
	Delta    int64
	// Onset is the age at which the defect first becomes able to fire;
	// zero means defective from manufacturing (escaped test).
	Onset simtime.Time
	// EscalatePerYear multiplies the rate for each year past onset,
	// modelling "often get worse with time". 1.0 means stable.
	EscalatePerYear float64
}

// Triggers reports whether the defect affects op at all (unit match and
// pattern match) — independent of rate.
func (d *Defect) Triggers(op OpClass, operandA uint64) bool {
	if UnitOf(op) != d.Unit {
		return false
	}
	if d.PatternMask != 0 && operandA&d.PatternMask != d.PatternVal {
		return false
	}
	return true
}

// Rate returns the activation probability for a matching operation at
// operating point pt and core age. Returns 0 before onset.
func (d *Defect) Rate(pt OperatingPoint, age simtime.Time) float64 {
	if age < d.Onset {
		return 0
	}
	if d.Deterministic {
		return 1
	}
	r := d.BaseRate * d.Sens.Factor(pt)
	if d.EscalatePerYear > 0 && d.EscalatePerYear != 1 {
		years := float64((age - d.Onset) / simtime.Year)
		if years > 0 {
			r *= pow(d.EscalatePerYear, years)
		}
	}
	if r > 1 {
		r = 1
	}
	if r < 0 {
		r = 0
	}
	return r
}

// CorruptResult applies the defect's transform to a correct result.
// CorruptPreXORInput and CorruptDropUpdate are handled by the execution
// engine before/instead of the operation; for those kinds CorruptResult
// returns the result unchanged.
func (d *Defect) CorruptResult(result uint64) uint64 {
	switch d.Kind {
	case CorruptBitFlip:
		return result ^ (1 << (d.BitPos & 63))
	case CorruptStuckBit:
		bit := uint64(1) << (d.BitPos & 63)
		if d.StuckVal == 0 {
			return result &^ bit
		}
		return result | bit
	case CorruptXORMask:
		return result ^ d.Mask
	case CorruptWrongLane:
		return result<<8 | result>>56
	case CorruptOffByOne:
		return uint64(int64(result) + d.Delta)
	default:
		return result
	}
}

// String summarizes the defect for logs and triage reports.
func (d *Defect) String() string {
	return fmt.Sprintf("%s[%s unit=%s kind=%s rate=%.3g onset=%.0fd]",
		d.ID, d.Class, d.Unit, d.Kind, d.BaseRate, d.Onset.Days())
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
