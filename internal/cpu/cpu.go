package cpu

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// Trap kinds raised by the interpreter.
var (
	ErrDivByZero  = errors.New("cpu: divide by zero")
	ErrBadAddress = errors.New("cpu: memory access out of range")
	ErrBadPC      = errors.New("cpu: program counter out of range")
	ErrMaxCycles  = errors.New("cpu: cycle budget exhausted")
	ErrNotHalted  = errors.New("cpu: machine has not halted")
)

// CPU is one simulated core: registers, data memory, program, and the
// gate-level ALU carrying any injected faults.
type CPU struct {
	Regs [16]uint64
	Mem  []uint64
	PC   int
	// ALU is the shared integer datapath; inject StuckAt faults here.
	ALU ALU
	// Cycles counts executed instructions.
	Cycles uint64
	prog   []isa.Inst
	halted bool
}

// New returns a CPU with the given program and data-memory size in words.
func New(program []uint32, memWords int) (*CPU, error) {
	c := &CPU{Mem: make([]uint64, memWords)}
	c.prog = make([]isa.Inst, len(program))
	for i, w := range program {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("cpu: instruction %d: %w", i, err)
		}
		c.prog[i] = in
	}
	return c, nil
}

// Step executes one instruction. It returns an error for traps.
func (c *CPU) Step() error {
	if c.halted {
		return nil
	}
	if c.PC < 0 || c.PC >= len(c.prog) {
		return fmt.Errorf("%w: pc=%d", ErrBadPC, c.PC)
	}
	in := c.prog[c.PC]
	c.PC++
	c.Cycles++
	// r0 is hardwired to zero; reads below see the invariant, and writes
	// are squashed after execution.
	defer func() { c.Regs[0] = 0 }()

	rs1 := c.Regs[in.Rs1]
	rs2 := c.Regs[in.Rs2]
	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		c.halted = true
	case isa.OpAdd:
		c.Regs[in.Rd] = c.ALU.Add(rs1, rs2, 0)
	case isa.OpSub:
		c.Regs[in.Rd] = c.ALU.Sub(rs1, rs2)
	case isa.OpAnd:
		c.Regs[in.Rd] = rs1 & rs2
	case isa.OpOr:
		c.Regs[in.Rd] = rs1 | rs2
	case isa.OpXor:
		c.Regs[in.Rd] = rs1 ^ rs2
	case isa.OpShl:
		c.Regs[in.Rd] = rs1 << (rs2 & 63)
	case isa.OpShr:
		c.Regs[in.Rd] = rs1 >> (rs2 & 63)
	case isa.OpMul:
		c.Regs[in.Rd] = c.ALU.Mul(rs1, rs2)
	case isa.OpDiv:
		if rs2 == 0 {
			return fmt.Errorf("%w at pc=%d", ErrDivByZero, c.PC-1)
		}
		c.Regs[in.Rd] = rs1 / rs2
	case isa.OpAddi:
		c.Regs[in.Rd] = c.ALU.Add(rs1, uint64(int64(in.Imm)), 0)
	case isa.OpMovi:
		c.Regs[in.Rd] = uint64(int64(in.Imm))
	case isa.OpLd:
		addr := c.ALU.Add(rs1, uint64(int64(in.Imm)), 0)
		if addr >= uint64(len(c.Mem)) {
			return fmt.Errorf("%w: load %#x at pc=%d", ErrBadAddress, addr, c.PC-1)
		}
		c.Regs[in.Rd] = c.Mem[addr]
	case isa.OpSt:
		addr := c.ALU.Add(rs1, uint64(int64(in.Imm)), 0)
		if addr >= uint64(len(c.Mem)) {
			return fmt.Errorf("%w: store %#x at pc=%d", ErrBadAddress, addr, c.PC-1)
		}
		c.Mem[addr] = rs2
	case isa.OpBeq:
		if rs1 == rs2 {
			c.PC += int(in.Imm)
		}
	case isa.OpBne:
		if rs1 != rs2 {
			c.PC += int(in.Imm)
		}
	case isa.OpBlt:
		// The comparison runs through the faulty subtractor: blt is
		// "sign" of rs1 - rs2 in the unsigned sense (borrow out), so a
		// defective carry chain corrupts branches too.
		diff := c.ALU.Sub(rs1, rs2)
		borrow := rs1 < rs2 // architectural intent
		// If the ALU is faulty, derive the taken decision from the
		// faulty difference instead, mimicking flag generation from the
		// datapath: borrow ⇔ diff > rs1 for healthy logic.
		if c.ALU.Faulty() {
			borrow = diff > rs1
		}
		if borrow {
			c.PC += int(in.Imm)
		}
	case isa.OpJmp:
		c.PC += int(in.Imm)
	default:
		return fmt.Errorf("cpu: unimplemented op %v", in.Op)
	}
	return nil
}

// Run executes until HALT, a trap, or maxCycles instructions. Returns nil
// only on a clean halt.
func (c *CPU) Run(maxCycles uint64) error {
	start := c.Cycles
	for !c.halted {
		if c.Cycles-start >= maxCycles {
			return fmt.Errorf("%w (%d)", ErrMaxCycles, maxCycles)
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Result returns register r after a clean halt.
func (c *CPU) Result(r int) (uint64, error) {
	if !c.halted {
		return 0, ErrNotHalted
	}
	if r < 0 || r > 15 {
		return 0, fmt.Errorf("cpu: bad register %d", r)
	}
	return c.Regs[r], nil
}
