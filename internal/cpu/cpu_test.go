package cpu

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func assemble(t *testing.T, src string) []uint32 {
	t.Helper()
	words, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return words
}

func runProgram(t *testing.T, src string, mem int) *CPU {
	t.Helper()
	c, err := New(assemble(t, src), mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestALUAddMatchesNative(t *testing.T) {
	var a ALU
	f := func(x, y uint64) bool { return a.Add(x, y, 0) == x+y }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestALUSubMatchesNative(t *testing.T) {
	var a ALU
	f := func(x, y uint64) bool { return a.Sub(x, y) == x-y }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestALUMulMatchesNative(t *testing.T) {
	var a ALU
	f := func(x, y uint64) bool { return a.Mul(x, y) == x*y }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestALUCarryIn(t *testing.T) {
	var a ALU
	if a.Add(1, 2, 1) != 4 {
		t.Fatal("carry-in ignored")
	}
}

func TestInjectValidation(t *testing.T) {
	var a ALU
	if err := a.Inject(StuckAt{Bit: 64}); err == nil {
		t.Fatal("bad bit accepted")
	}
	if err := a.Inject(StuckAt{Bit: 0, Value: 2}); err == nil {
		t.Fatal("bad value accepted")
	}
	if err := a.Inject(StuckAt{Bit: 0, Node: Node(9)}); err == nil {
		t.Fatal("bad node accepted")
	}
	if err := a.Inject(StuckAt{Bit: 5, Node: NodeSum, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if !a.Faulty() {
		t.Fatal("fault not registered")
	}
}

func TestStuckSumFault(t *testing.T) {
	var a ALU
	a.Inject(StuckAt{Bit: 3, Node: NodeSum, Value: 1})
	// 0 + 0 should be 0, but sum bit 3 is stuck at 1.
	if got := a.Add(0, 0, 0); got != 8 {
		t.Fatalf("got %d, want 8", got)
	}
	// When the true sum already has bit 3 set, the fault is invisible.
	if got := a.Add(8, 0, 0); got != 8 {
		t.Fatalf("got %d, want 8", got)
	}
}

func TestStuckCarryFaultPropagates(t *testing.T) {
	var a ALU
	a.Inject(StuckAt{Bit: 0, Node: NodeCarry, Value: 1})
	// 0+0: carry out of bit 0 stuck at 1 ripples into bit 1.
	if got := a.Add(0, 0, 0); got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
}

func TestSingleFaultCorruptsAddSubMulTogether(t *testing.T) {
	// The §5 shared-logic observation at circuit level: one stuck-at
	// fault corrupts correlated families of operations.
	var a ALU
	a.Inject(StuckAt{Bit: 7, Node: NodeCarry, Value: 0})
	addBad, subBad, mulBad := false, false, false
	for x := uint64(0); x < 2000; x += 13 {
		y := x*31 + 7
		if a.Add(x, y, 0) != x+y {
			addBad = true
		}
		if a.Sub(x, y) != x-y {
			subBad = true
		}
		if a.Mul(x, y) != x*y {
			mulBad = true
		}
	}
	if !addBad || !subBad || !mulBad {
		t.Fatalf("correlation missing: add=%v sub=%v mul=%v", addBad, subBad, mulBad)
	}
}

func TestFaultCanBeDataDependent(t *testing.T) {
	// A stuck-at-1 carry node is invisible whenever the true carry is 1
	// — the "data patterns affect corruption rates" behaviour.
	var a ALU
	a.Inject(StuckAt{Bit: 0, Node: NodeCarry, Value: 1})
	if a.Add(1, 1, 0) != 2 {
		t.Fatal("fault visible where true carry is already 1")
	}
	if a.Add(1, 0, 0) == 1 {
		t.Fatal("fault invisible where it should corrupt")
	}
}

func TestStuckAtString(t *testing.T) {
	s := StuckAt{Bit: 9, Node: NodeCarry, Value: 1}.String()
	if !strings.Contains(s, "carry[9]") || !strings.Contains(s, "stuck-at-1") {
		t.Fatalf("s = %q", s)
	}
	if NodeSum.String() != "sum" || !strings.Contains(Node(9).String(), "9") {
		t.Fatal("node names wrong")
	}
}

const sumProgram = `
	; r3 = sum 1..r1
	movi r1, 100
	movi r3, 0
loop:
	add r3, r3, r1
	addi r1, r1, -1
	bne r1, r0, loop
	halt
`

func TestRunSumProgram(t *testing.T) {
	c := runProgram(t, sumProgram, 0)
	got, err := c.Result(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5050 {
		t.Fatalf("sum = %d", got)
	}
	if c.Cycles == 0 || !c.halted {
		t.Fatal("cycle accounting or halt wrong")
	}
}

func TestMemoryProgram(t *testing.T) {
	c := runProgram(t, `
		movi r1, 42
		st r1, r0, 5
		ld r2, r0, 5
		halt
	`, 16)
	if v, _ := c.Result(2); v != 42 {
		t.Fatalf("r2 = %d", v)
	}
	if c.Mem[5] != 42 {
		t.Fatalf("mem[5] = %d", c.Mem[5])
	}
}

func TestR0Hardwired(t *testing.T) {
	c := runProgram(t, `
		movi r0, 99
		add r0, r0, r0
		movi r1, 7
		add r2, r1, r0
		halt
	`, 0)
	if v, _ := c.Result(2); v != 7 {
		t.Fatalf("r2 = %d; r0 not hardwired to zero", v)
	}
}

func TestMulDivShiftLogic(t *testing.T) {
	c := runProgram(t, `
		movi r1, 12
		movi r2, 5
		mul r3, r1, r2    ; 60
		div r4, r3, r2    ; 12
		movi r5, 2
		shl r6, r1, r5    ; 48
		shr r7, r6, r5    ; 12
		and r8, r1, r2    ; 4
		or r9, r1, r2     ; 13
		xor r10, r1, r2   ; 9
		halt
	`, 0)
	want := map[int]uint64{3: 60, 4: 12, 6: 48, 7: 12, 8: 4, 9: 13, 10: 9}
	for r, w := range want {
		if v, _ := c.Result(r); v != w {
			t.Fatalf("r%d = %d, want %d", r, v, w)
		}
	}
}

func TestBranches(t *testing.T) {
	c := runProgram(t, `
		movi r1, 3
		movi r2, 5
		movi r10, 0
		blt r1, r2, less
		movi r10, 1      ; skipped
	less:
		beq r1, r1, eq
		movi r10, 2      ; skipped
	eq:
		bne r1, r2, done
		movi r10, 3      ; skipped
	done:
		halt
	`, 0)
	if v, _ := c.Result(10); v != 0 {
		t.Fatalf("r10 = %d; a branch misbehaved", v)
	}
}

func TestTraps(t *testing.T) {
	// Divide by zero.
	c, _ := New(assemble(t, "movi r1, 1\ndiv r2, r1, r0\nhalt"), 0)
	if err := c.Run(100); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("err = %v", err)
	}
	// Bad load address.
	c, _ = New(assemble(t, "movi r1, 100\nld r2, r1, 0\nhalt"), 4)
	if err := c.Run(100); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v", err)
	}
	// Bad store address.
	c, _ = New(assemble(t, "movi r1, 100\nst r1, r1, 0\nhalt"), 4)
	if err := c.Run(100); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v", err)
	}
	// Runaway program.
	c, _ = New(assemble(t, "here: jmp here"), 0)
	if err := c.Run(1000); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v", err)
	}
	// PC off the end.
	c, _ = New(assemble(t, "nop"), 0)
	if err := c.Run(10); !errors.Is(err, ErrBadPC) {
		t.Fatalf("err = %v", err)
	}
}

func TestResultBeforeHalt(t *testing.T) {
	c, _ := New(assemble(t, "nop\nhalt"), 0)
	if _, err := c.Result(1); !errors.Is(err, ErrNotHalted) {
		t.Fatalf("err = %v", err)
	}
	c.Run(10)
	if _, err := c.Result(99); err == nil {
		t.Fatal("bad register accepted")
	}
}

func TestNewRejectsBadProgram(t *testing.T) {
	if _, err := New([]uint32{0xFFFFFFFF}, 0); err == nil {
		t.Fatal("bad instruction word accepted")
	}
}

func TestInjectedFaultCorruptsProgramResult(t *testing.T) {
	// The §9 use case: run the same program with and without an
	// injected circuit fault and observe a silent wrong answer.
	clean := runProgram(t, sumProgram, 0)
	want, _ := clean.Result(3)

	words := assemble(t, sumProgram)
	c, _ := New(words, 0)
	c.ALU.Inject(StuckAt{Bit: 2, Node: NodeSum, Value: 0})
	if err := c.Run(1_000_000); err != nil {
		// A fault may also manifest as a trap or runaway loop (the
		// addi/branch path uses the faulty adder); both are §2 outcomes.
		t.Logf("fault produced a noisy failure: %v", err)
		return
	}
	got, _ := c.Result(3)
	if got == want {
		t.Fatalf("fault was invisible: %d", got)
	}
}

func TestFaultCorruptsAddressGeneration(t *testing.T) {
	// The faulty adder also computes effective addresses: a store can
	// land on the wrong word — silent corruption of neighbouring state.
	src := `
		movi r1, 42
		movi r2, 4
		st r1, r2, 0
		halt
	`
	c, _ := New(assemble(t, src), 16)
	c.ALU.Inject(StuckAt{Bit: 1, Node: NodeSum, Value: 1})
	if err := c.Run(100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if c.Mem[4] == 42 {
		t.Fatal("store landed at the architectural address despite fault")
	}
	if c.Mem[6] != 42 { // 4 | 1<<1 = 6
		t.Fatalf("mem = %v", c.Mem[:8])
	}
}

func TestDeterministicWithFault(t *testing.T) {
	run := func() (uint64, error) {
		c, _ := New(assemble(t, sumProgram), 0)
		c.ALU.Inject(StuckAt{Bit: 5, Node: NodeCarry, Value: 1})
		if err := c.Run(1_000_000); err != nil {
			return 0, err
		}
		return c.Result(3)
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) || a != b {
		t.Fatal("faulty execution not deterministic")
	}
}

func BenchmarkSumProgram(b *testing.B) {
	words, err := isa.Assemble(sumProgram)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		c, _ := New(words, 0)
		if err := c.Run(1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGateLevelAdd(b *testing.B) {
	var a ALU
	var s uint64
	for i := 0; i < b.N; i++ {
		s = a.Add(s, uint64(i), 0)
	}
	_ = s
}
