package mitigate

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// sumComp is a simple deterministic computation: sum 0..999 through the
// engine and serialize the result.
func sumComp(e *engine.Engine) []byte {
	var s uint64
	for i := uint64(0); i < 1000; i++ {
		s = e.Add64(s, i)
	}
	return []byte(fmt.Sprintf("%d", s))
}

const sumWant = "499500"

func healthyPool(n int, seed uint64) []*fault.Core {
	rng := xrand.New(seed)
	cores := make([]*fault.Core, n)
	for i := range cores {
		cores[i] = fault.NewCore(fmt.Sprintf("h%d", i), rng)
	}
	return cores
}

// poolWithBadCore returns n cores where core 0 corrupts every add.
func poolWithBadCore(n int, seed uint64) []*fault.Core {
	cores := healthyPool(n, seed)
	// Off-by-delta compounds across the additions, so the bad core's
	// output provably differs from the healthy result (bit-flip defects
	// can telescope away over a running sum).
	d := fault.Defect{ID: "d", Unit: fault.UnitALU, Deterministic: true,
		Kind: fault.CorruptOffByOne, Delta: 5}
	cores[0] = fault.NewCore("bad", xrand.New(seed+100), d)
	return cores
}

func TestOnceHealthy(t *testing.T) {
	x := NewExecutor(healthyPool(4, 1), 2)
	out, st, err := x.Once(sumComp)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != sumWant {
		t.Fatalf("out = %s", out)
	}
	if st.Executions != 1 || st.Ops == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDMRAgreesOnHealthyPool(t *testing.T) {
	x := NewExecutor(healthyPool(4, 3), 4)
	out, st, err := x.DMR(sumComp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != sumWant {
		t.Fatalf("out = %s", out)
	}
	if st.Executions != 2 || st.Disagreements != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDMRRecoversFromBadCore(t *testing.T) {
	// With one always-bad core in a pool of 4, the first pair may
	// disagree; DMR must converge to the correct answer.
	for seed := uint64(0); seed < 10; seed++ {
		x := NewExecutor(poolWithBadCore(4, seed), seed+50)
		out, st, err := x.DMR(sumComp, 3)
		if err != nil {
			t.Fatalf("seed %d: %v (stats %+v)", seed, err, st)
		}
		if string(out) != sumWant {
			t.Fatalf("seed %d: wrong answer %s survived DMR", seed, out)
		}
	}
}

func TestDMRCostIsTwiceBaseline(t *testing.T) {
	x := NewExecutor(healthyPool(4, 5), 6)
	_, stOnce, _ := x.Once(sumComp)
	_, stDMR, _ := x.DMR(sumComp, 3)
	ratio := float64(stDMR.Ops) / float64(stOnce.Ops)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("DMR cost ratio = %v, want ~2", ratio)
	}
}

func TestDMRPoolTooSmall(t *testing.T) {
	x := NewExecutor(healthyPool(1, 7), 8)
	if _, _, err := x.DMR(sumComp, 2); err == nil {
		t.Fatal("DMR on one core should fail")
	}
}

func TestTMROutvotesBadCore(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		x := NewExecutor(poolWithBadCore(3, seed), seed+60)
		out, st, err := x.TMR(sumComp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if string(out) != sumWant {
			t.Fatalf("seed %d: TMR produced wrong answer %s", seed, out)
		}
		if st.Executions != 3 {
			t.Fatalf("stats = %+v", st)
		}
		// The bad core always corrupts, so one replica disagreed.
		if st.Disagreements != 1 {
			t.Fatalf("disagreements = %d, want 1", st.Disagreements)
		}
	}
}

func TestTMRCostIsThriceBaseline(t *testing.T) {
	x := NewExecutor(healthyPool(4, 9), 10)
	_, stOnce, _ := x.Once(sumComp)
	_, stTMR, _ := x.TMR(sumComp)
	ratio := float64(stTMR.Ops) / float64(stOnce.Ops)
	if ratio < 2.9 || ratio > 3.1 {
		t.Fatalf("TMR cost ratio = %v, want ~3", ratio)
	}
}

func TestTMRNoQuorumWhenMajorityBad(t *testing.T) {
	// Two different always-bad cores + one healthy: three distinct
	// answers, no quorum.
	cores := healthyPool(3, 11)
	cores[0] = fault.NewCore("bad0", xrand.New(200), fault.Defect{
		ID: "d0", Unit: fault.UnitALU, Deterministic: true,
		Kind: fault.CorruptOffByOne, Delta: 1})
	cores[1] = fault.NewCore("bad1", xrand.New(201), fault.Defect{
		ID: "d1", Unit: fault.UnitALU, Deterministic: true,
		Kind: fault.CorruptOffByOne, Delta: 2})
	x := NewExecutor(cores, 12)
	_, _, err := x.TMR(sumComp)
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestNModularValidation(t *testing.T) {
	x := NewExecutor(healthyPool(5, 13), 14)
	if _, _, err := x.NModular(sumComp, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, _, err := x.NModular(sumComp, 9); err == nil {
		t.Fatal("n beyond pool accepted")
	}
	out, st, err := x.NModular(sumComp, 5)
	if err != nil || string(out) != sumWant || st.Executions != 5 {
		t.Fatalf("5-modular: %v %s %+v", err, out, st)
	}
}

func TestNModularRejectsEvenN(t *testing.T) {
	x := NewExecutor(healthyPool(6, 27), 28)
	for _, n := range []int{2, 4, 6} {
		if _, _, err := x.NModular(sumComp, n); err == nil {
			t.Fatalf("even n=%d accepted; an even split carries no majority", n)
		}
	}
}

// allBadPool returns n cores that each corrupt every add by a distinct
// delta, so any pair of them disagrees deterministically.
func allBadPool(n int, seed uint64) []*fault.Core {
	cores := make([]*fault.Core, n)
	for i := range cores {
		cores[i] = fault.NewCore(fmt.Sprintf("bad%d", i), xrand.New(seed*100+uint64(i)),
			fault.Defect{ID: fmt.Sprintf("d%d", i), Unit: fault.UnitALU,
				Deterministic: true, Kind: fault.CorruptOffByOne, Delta: int64(i + 1)})
	}
	return cores
}

func TestDMRNeverRepeatsFailingPair(t *testing.T) {
	// Three always-disagreeing cores force pool exhaustion after round 1.
	// The retry pair must never be the exact pair that just disagreed —
	// re-running it would deterministically reproduce the disagreement.
	for seed := uint64(0); seed < 20; seed++ {
		var order []string
		comp := func(e *engine.Engine) []byte {
			order = append(order, e.Core().ID)
			return sumComp(e)
		}
		x := NewExecutor(allBadPool(3, seed), seed+31)
		_, st, err := x.DMR(comp, 6)
		if !errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("seed %d: err = %v, want ErrRetriesExhausted", seed, err)
		}
		if st.Retries != 6 || len(order) != 12 {
			t.Fatalf("seed %d: stats %+v, %d executions", seed, st, len(order))
		}
		pair := func(r int) string {
			a, b := order[2*r], order[2*r+1]
			if a > b {
				a, b = b, a
			}
			return a + "+" + b
		}
		for r := 1; r < 6; r++ {
			if pair(r) == pair(r-1) {
				t.Fatalf("seed %d: round %d reused the failing pair %s", seed, r, pair(r))
			}
		}
	}
}

func TestDMRTwoCorePoolDegradesToReuse(t *testing.T) {
	// With only two cores the failing pair is the only pair: DMR keeps
	// retrying it (rather than erroring out of picks) and exhausts rounds.
	x := NewExecutor(allBadPool(2, 5), 33)
	_, st, err := x.DMR(sumComp, 3)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if st.Executions != 6 {
		t.Fatalf("executions = %d, want 6 (3 rounds of 2)", st.Executions)
	}
}

func TestNModularOneIsBaseline(t *testing.T) {
	x := NewExecutor(healthyPool(2, 15), 16)
	out, st, err := x.NModular(sumComp, 1)
	if err != nil || string(out) != sumWant || st.Executions != 1 {
		t.Fatalf("1-modular: %v %s %+v", err, out, st)
	}
}

func BenchmarkOnce(b *testing.B) {
	x := NewExecutor(healthyPool(4, 1), 2)
	for i := 0; i < b.N; i++ {
		x.Once(sumComp)
	}
}

func BenchmarkTMR(b *testing.B) {
	x := NewExecutor(healthyPool(4, 1), 2)
	for i := 0; i < b.N; i++ {
		x.TMR(sumComp)
	}
}
