// Package cpu implements a cycle-level interpreter for the isa package
// whose integer datapath is built from an explicit gate-level bit-slice
// adder, so that *circuit-level* stuck-at faults can be injected — the
// finer-grained simulator §9 of the paper asks for.
//
// Because ADD, SUB (two's complement), MUL (shift-add), and load/store
// address generation all share the same adder, a single stuck-at fault on
// one carry or sum node corrupts a correlated family of instructions —
// exactly the §5 observation that "the mapping of instructions to
// possibly-defective hardware is non-obvious" and that operations sharing
// hardware logic fail together.
package cpu

import "fmt"

// Node identifies a signal node within one bit slice of the adder.
type Node int

const (
	// NodeSum is the sum output of the full adder at a bit position.
	NodeSum Node = iota
	// NodeCarry is the carry-out of the full adder at a bit position.
	NodeCarry
)

func (n Node) String() string {
	switch n {
	case NodeSum:
		return "sum"
	case NodeCarry:
		return "carry"
	default:
		return fmt.Sprintf("Node(%d)", int(n))
	}
}

// StuckAt is a circuit-level fault: the given node of the given bit slice
// is stuck at Value (0 or 1).
type StuckAt struct {
	Bit   uint // 0..63
	Node  Node
	Value uint // 0 or 1
}

func (f StuckAt) String() string {
	return fmt.Sprintf("stuck-at-%d on %s[%d]", f.Value, f.Node, f.Bit)
}

// ALU is a gate-level 64-bit integer adder with injectable stuck-at
// faults. The zero value is a fault-free ALU.
type ALU struct {
	// faults indexed by bit then node; nil entries mean healthy.
	sumFault   [64]*uint
	carryFault [64]*uint
}

// Inject adds a stuck-at fault. Injecting a second fault on the same node
// replaces the first.
func (a *ALU) Inject(f StuckAt) error {
	if f.Bit > 63 {
		return fmt.Errorf("cpu: fault bit %d out of range", f.Bit)
	}
	if f.Value > 1 {
		return fmt.Errorf("cpu: fault value %d not a bit", f.Value)
	}
	v := f.Value
	switch f.Node {
	case NodeSum:
		a.sumFault[f.Bit] = &v
	case NodeCarry:
		a.carryFault[f.Bit] = &v
	default:
		return fmt.Errorf("cpu: unknown node %v", f.Node)
	}
	return nil
}

// Faulty reports whether any fault is injected.
func (a *ALU) Faulty() bool {
	for i := 0; i < 64; i++ {
		if a.sumFault[i] != nil || a.carryFault[i] != nil {
			return true
		}
	}
	return false
}

// Add computes a + b + cin through the ripple-carry bit slices, applying
// stuck-at faults to the sum and carry nodes as the signal propagates.
func (a *ALU) Add(x, y uint64, cin uint) uint64 {
	var out uint64
	carry := cin & 1
	for bit := uint(0); bit < 64; bit++ {
		xb := uint(x>>bit) & 1
		yb := uint(y>>bit) & 1
		sum := xb ^ yb ^ carry
		carryOut := (xb & yb) | (xb & carry) | (yb & carry)
		if f := a.sumFault[bit]; f != nil {
			sum = *f
		}
		if f := a.carryFault[bit]; f != nil {
			carryOut = *f
		}
		out |= uint64(sum) << bit
		carry = carryOut
	}
	return out
}

// Sub computes x - y as x + ^y + 1, through the same (possibly faulty)
// adder.
func (a *ALU) Sub(x, y uint64) uint64 {
	return a.Add(x, ^y, 1)
}

// Mul computes the low 64 bits of x*y by shift-and-add, reusing the
// (possibly faulty) adder for every partial-product accumulation — the
// shared-logic path.
func (a *ALU) Mul(x, y uint64) uint64 {
	var acc uint64
	for bit := uint(0); bit < 64 && y != 0; bit++ {
		if y&1 != 0 {
			acc = a.Add(acc, x<<bit, 0)
		}
		y >>= 1
	}
	return acc
}
