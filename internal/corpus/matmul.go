package corpus

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// MatMul is the math-library workload: an n×n uint64 matrix multiply whose
// multiplies and adds route through the engine, checked cell by cell
// against a native mirror.
type MatMul struct {
	// N is the matrix dimension.
	N int
}

// NewMatMul returns a MatMul workload for n×n matrices.
func NewMatMul(n int) *MatMul { return &MatMul{N: n} }

// Name implements Workload.
func (*MatMul) Name() string { return "matmul" }

// Units implements Workload.
func (*MatMul) Units() []fault.Unit { return []fault.Unit{fault.UnitALU, fault.UnitMul} }

// MulMatrices multiplies n×n row-major matrices a and b through the engine.
func MulMatrices(e *engine.Engine, a, b []uint64, n int) []uint64 {
	c := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc uint64
			for k := 0; k < n; k++ {
				acc = e.Add64(acc, e.Mul64(a[i*n+k], b[k*n+j]))
			}
			c[i*n+j] = acc
		}
	}
	return c
}

// mulGolden is the native mirror of MulMatrices.
func mulGolden(a, b []uint64, n int) []uint64 {
	c := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc uint64
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return c
}

var matMulUnits = unitsOf(&MatMul{})

// Run implements Workload.
func (w *MatMul) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		n := w.N
		a := make([]uint64, n*n)
		b := make([]uint64, n*n)
		for i := range a {
			a[i] = rng.Uint64()
			b[i] = rng.Uint64()
		}
		if c := e.Core(); !c.AnyArmed(matMulUnits) {
			// One multiply and one add per inner-product term.
			c.OpCount[fault.OpMul] += uint64(n * n * n)
			c.OpCount[fault.OpAdd] += uint64(n * n * n)
			return ""
		}
		got := MulMatrices(e, a, b, n)
		want := mulGolden(a, b, n)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("cell (%d,%d): got %#x want %#x", i/n, i%n, got[i], want[i])
			}
		}
		return ""
	})
}

// Sort is the sorting workload: an engine-routed quicksort whose compares
// go through the compare unit, verified natively for order and content.
// A corrupted compare silently misorders output — the control-flow CEE.
type Sort struct {
	// N is the slice length per run.
	N int
}

// NewSort returns a Sort workload over slices of length n.
func NewSort(n int) *Sort { return &Sort{N: n} }

// Name implements Workload.
func (*Sort) Name() string { return "sort" }

// Units implements Workload.
func (*Sort) Units() []fault.Unit { return []fault.Unit{fault.UnitALU} }

// SortSlice sorts xs in place using the engine's compare unit (insertion
// sort for small runs, quicksort otherwise).
func SortSlice(e *engine.Engine, xs []uint64) {
	if len(xs) < 16 {
		insertion(e, xs)
		return
	}
	// Median-of-three pivot through the compare unit.
	mid := len(xs) / 2
	hi := len(xs) - 1
	if e.Less64(xs[mid], xs[0]) {
		xs[mid], xs[0] = xs[0], xs[mid]
	}
	if e.Less64(xs[hi], xs[0]) {
		xs[hi], xs[0] = xs[0], xs[hi]
	}
	if e.Less64(xs[hi], xs[mid]) {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	i, j := 0, hi
	for i <= j {
		for e.Less64(xs[i], pivot) {
			i++
		}
		for e.Less64(pivot, xs[j]) {
			j--
		}
		if i <= j {
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
		}
	}
	SortSlice(e, xs[:j+1])
	SortSlice(e, xs[i:])
}

func insertion(e *engine.Engine, xs []uint64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && e.Less64(v, xs[j]) {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// sortCompares sorts xs natively, exactly as SortSlice does, and returns
// the number of compares SortSlice issues on it.
func sortCompares(xs []uint64) uint64 {
	if len(xs) < 16 {
		return insertionCompares(xs)
	}
	mid := len(xs) / 2
	hi := len(xs) - 1
	if xs[mid] < xs[0] {
		xs[mid], xs[0] = xs[0], xs[mid]
	}
	if xs[hi] < xs[0] {
		xs[hi], xs[0] = xs[0], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	n := uint64(3)
	pivot := xs[mid]
	i, j := 0, hi
	for i <= j {
		// Each scan issues one compare per step plus the one that stops it.
		i0, j0 := i, j
		for xs[i] < pivot {
			i++
		}
		for pivot < xs[j] {
			j--
		}
		n += uint64(i-i0) + uint64(j0-j) + 2
		if i <= j {
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
		}
	}
	return n + sortCompares(xs[:j+1]) + sortCompares(xs[i:])
}

// insertionCompares is insertion's native twin, as sortCompares is
// SortSlice's.
func insertionCompares(xs []uint64) uint64 {
	var n uint64
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		// One compare per shift, plus the failing one unless j ran out.
		for j >= 0 && v < xs[j] {
			xs[j+1] = xs[j]
			j--
			n++
		}
		if j >= 0 {
			n++
		}
		xs[j+1] = v
	}
	return n
}

var sortUnits = unitsOf(&Sort{})

// Run implements Workload.
func (w *Sort) Run(e *engine.Engine, rng *xrand.RNG) Result {
	return run(e, w.Name(), func() string {
		xs := make([]uint64, w.N)
		var xorAll, sumAll uint64
		for i := range xs {
			xs[i] = rng.Uint64()
			xorAll ^= xs[i]
			sumAll += xs[i]
		}
		if c := e.Core(); !c.AnyArmed(sortUnits) {
			c.OpCount[fault.OpCmp] += sortCompares(xs)
			return ""
		}
		SortSlice(e, xs)
		for i := 1; i < len(xs); i++ {
			if xs[i-1] > xs[i] {
				return fmt.Sprintf("misordered at %d: %#x > %#x", i, xs[i-1], xs[i])
			}
		}
		// Content check: sort must be a permutation of the input.
		var xorGot, sumGot uint64
		for _, v := range xs {
			xorGot ^= v
			sumGot += v
		}
		if xorGot != xorAll || sumGot != sumAll {
			return "content changed: output is not a permutation of input"
		}
		return ""
	})
}
