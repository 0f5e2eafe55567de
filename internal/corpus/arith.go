package corpus

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Arith is the integer-torture workload: random chains of add/sub/mul/div/
// logic/shift/compare operations mirrored natively, checked step by step so
// a single corrupted operation is localized.
type Arith struct {
	// Steps is the number of operations per run.
	Steps int
}

// NewArith returns an Arith workload with the given step count.
func NewArith(steps int) *Arith { return &Arith{Steps: steps} }

// Name implements Workload.
func (*Arith) Name() string { return "arith-torture" }

// Units implements Workload.
func (*Arith) Units() []fault.Unit {
	return []fault.Unit{fault.UnitALU, fault.UnitMul, fault.UnitDiv}
}

var arithUnits = unitsOf(&Arith{})

// Run implements Workload.
func (w *Arith) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		if c := e.Core(); !c.AnyArmed(arithUnits) {
			w.native(c, rng)
			return ""
		}
		x := rng.Uint64() | 1
		want := x
		for i := 0; i < w.Steps; i++ {
			b := rng.Uint64()
			var got uint64
			switch op := rng.Intn(8); op {
			case 0:
				got, want = e.Add64(x, b), want+b
			case 1:
				got, want = e.Sub64(x, b), want-b
			case 2:
				got, want = e.Mul64(x, b), want*b
			case 3:
				d := b | 1 // avoid div-by-zero: that path is tested separately
				q, _ := e.Div64(x, d)
				got, want = q, want/d
			case 4:
				got, want = e.Xor64(x, b), want^b
			case 5:
				got, want = e.Or64(x, b), want|b
			case 6:
				k := uint(b & 63)
				got, want = e.Shl64(x, k), want<<k
			default:
				k := uint(b & 63)
				got, want = e.Shr64(x, k), want>>k
			}
			if got != want {
				return fmt.Sprintf("step %d: got %#x want %#x", i, got, want)
			}
			x = got
			// Interleave compares so the compare unit is exercised too.
			if e.Less64(x, b) != (x < b) {
				return fmt.Sprintf("step %d: corrupted compare", i)
			}
			want = x
		}
		return ""
	})
}

// native makes Run's draws and counts its ops on a core where none of
// Arith's units is armed: every step is exact there, so only the op mix
// needs simulating.
func (w *Arith) native(c *fault.Core, rng *xrand.RNG) {
	rng.Uint64()
	var n [8]uint64 // steps by op, as Run's switch numbers them
	for i := 0; i < w.Steps; i++ {
		rng.Uint64()
		n[rng.Intn(8)]++
	}
	c.OpCount[fault.OpAdd] += n[0]
	c.OpCount[fault.OpSub] += n[1]
	c.OpCount[fault.OpMul] += n[2]
	c.OpCount[fault.OpDiv] += n[3]
	c.OpCount[fault.OpLogic] += n[4] + n[5]
	c.OpCount[fault.OpShift] += n[6] + n[7]
	c.OpCount[fault.OpCmp] += uint64(max(w.Steps, 0)) // one interleaved compare per step
}

// Vec is the vector-unit workload: lane-wise adds, xors, and reductions
// checked against native results.
type Vec struct {
	// Lanes is the vector length per operation batch.
	Lanes int
}

// NewVec returns a Vec workload over the given number of lanes.
func NewVec(lanes int) *Vec { return &Vec{Lanes: lanes} }

// Name implements Workload.
func (*Vec) Name() string { return "vector-ops" }

// Units implements Workload.
func (*Vec) Units() []fault.Unit { return []fault.Unit{fault.UnitVec} }

// Run implements Workload.
func (w *Vec) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		a := make([]uint64, w.Lanes)
		b := make([]uint64, w.Lanes)
		for i := range a {
			a[i] = rng.Uint64()
			b[i] = rng.Uint64()
		}
		dst := make([]uint64, w.Lanes)
		e.VecAdd(dst, a, b)
		for i := range dst {
			if dst[i] != a[i]+b[i] {
				return fmt.Sprintf("vecadd lane %d: got %#x want %#x", i, dst[i], a[i]+b[i])
			}
		}
		e.VecXor(dst, a, b)
		for i := range dst {
			if dst[i] != a[i]^b[i] {
				return fmt.Sprintf("vecxor lane %d: got %#x want %#x", i, dst[i], a[i]^b[i])
			}
		}
		var want uint64
		for _, v := range a {
			want += v
		}
		if got := e.VecSum(a); got != want {
			return fmt.Sprintf("vecsum: got %#x want %#x", got, want)
		}
		return ""
	})
}

// Float is the floating-point workload: deterministic sums and products
// compared exactly against a native mirror executing the same op order.
type Float struct {
	// Steps is the number of FPU operations per run.
	Steps int
}

// NewFloat returns a Float workload with the given step count.
func NewFloat(steps int) *Float { return &Float{Steps: steps} }

// Name implements Workload.
func (*Float) Name() string { return "float-ops" }

// Units implements Workload.
func (*Float) Units() []fault.Unit { return []fault.Unit{fault.UnitFPU} }

var floatUnits = unitsOf(&Float{})

// Run implements Workload. Where the FPU is unarmed each op runs natively
// and is counted in place; the draws and the compare stay, so a NaN fails
// the run either way.
func (w *Float) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		c := e.Core()
		native := !c.AnyArmed(floatUnits)
		x := 1.0
		want := 1.0
		for i := 0; i < w.Steps; i++ {
			v := rng.NormFloat64()
			if i%2 == 0 {
				if native {
					x += v
					c.OpCount[fault.OpFAdd]++
				} else {
					x = e.FAdd(x, v)
				}
				want += v
			} else {
				m := 1 + v/1000 // keep magnitudes bounded
				if native {
					x *= m
					c.OpCount[fault.OpFMul]++
				} else {
					x = e.FMul(x, m)
				}
				want *= m
			}
			if x != want {
				return fmt.Sprintf("step %d: got %v want %v", i, x, want)
			}
		}
		return ""
	})
}

// Copy is the bulk-copy workload: copies a buffer through the engine and
// compares natively — the test that catches the §2 string-bitflip defect.
type Copy struct {
	// Bytes is the buffer size per run.
	Bytes int
}

// NewCopy returns a Copy workload over the given buffer size.
func NewCopy(n int) *Copy { return &Copy{Bytes: n} }

// Name implements Workload.
func (*Copy) Name() string { return "memcpy" }

// Units implements Workload.
func (*Copy) Units() []fault.Unit { return []fault.Unit{fault.UnitVec} }

// Run implements Workload.
func (w *Copy) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		src := make([]byte, w.Bytes)
		rng.Bytes(src)
		dst := make([]byte, w.Bytes)
		e.Copy(dst, src)
		for i := range src {
			if dst[i] != src[i] {
				return fmt.Sprintf("byte %d: got %#x want %#x", i, dst[i], src[i])
			}
		}
		return ""
	})
}
