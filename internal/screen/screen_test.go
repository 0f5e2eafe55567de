package screen

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

func TestHealthyCorePassesDeepScreen(t *testing.T) {
	core := fault.NewCore("h", xrand.New(1))
	rep := Screen(core, Deep(), xrand.New(2))
	if rep.Detected {
		t.Fatalf("healthy core flagged: %+v", rep.Detections[0])
	}
	if rep.OpsUsed == 0 || rep.PassesRun == 0 {
		t.Fatal("screen did no work")
	}
	if rep.CoreID != "h" {
		t.Fatalf("core id %q", rep.CoreID)
	}
}

func TestQuickScreenCatchesHotDefect(t *testing.T) {
	d := fault.Defect{ID: "d", Unit: fault.UnitALU, BaseRate: 1e-3,
		Kind: fault.CorruptBitFlip, BitPos: 11}
	core := fault.NewCore("m", xrand.New(3), d)
	rep := Screen(core, NewConfig(), xrand.New(4))
	if !rep.Detected {
		t.Fatal("quick screen missed a high-rate ALU defect")
	}
	if len(rep.Detections) == 0 {
		t.Fatal("detected but no detections recorded")
	}
	if rep.OpsToFirstDetection == 0 || rep.OpsToFirstDetection > rep.OpsUsed {
		t.Fatalf("cost accounting wrong: first=%d total=%d",
			rep.OpsToFirstDetection, rep.OpsUsed)
	}
}

func TestQuickScreenMissesColdDefect(t *testing.T) {
	// A 1e-12 defect cannot be caught in one corpus pass — the paper's
	// coverage problem.
	d := fault.Defect{ID: "d", Unit: fault.UnitALU, BaseRate: 1e-12,
		Kind: fault.CorruptBitFlip, BitPos: 11}
	core := fault.NewCore("m", xrand.New(5), d)
	rep := Screen(core, NewConfig(), xrand.New(6))
	if rep.Detected {
		t.Fatal("quick screen implausibly caught a 1e-12 defect")
	}
}

func TestDeepScreenBeatsQuickOnMediumDefect(t *testing.T) {
	// A medium-rate defect: quick screen mostly misses, deep screen
	// mostly catches — the detection/cost trade-off of §6.
	mk := func(seed uint64) *fault.Core {
		d := fault.Defect{ID: "d", Unit: fault.UnitMul, BaseRate: 2e-6,
			Kind: fault.CorruptBitFlip, BitPos: 33,
			Sens: fault.Sensitivity{Freq: 1.2, Volt: 1.0, Temp: 0.4}}
		return fault.NewCore("m", xrand.New(seed), d)
	}
	quickHits, deepHits := 0, 0
	const trials = 10
	for i := uint64(0); i < trials; i++ {
		if Screen(mk(i), NewConfig(), xrand.New(100+i)).Detected {
			quickHits++
		}
		if Screen(mk(i), Deep(), xrand.New(100+i)).Detected {
			deepHits++
		}
	}
	if deepHits <= quickHits {
		t.Fatalf("deep screen (%d/%d) not better than quick (%d/%d)",
			deepHits, trials, quickHits, trials)
	}
}

func TestScreenRestoresOperatingPoint(t *testing.T) {
	core := fault.NewCore("h", xrand.New(7))
	orig := core.Point
	Screen(core, Deep(), xrand.New(8))
	if core.Point != orig {
		t.Fatalf("operating point not restored: %+v", core.Point)
	}
}

func TestScreenRespectsOpsBudget(t *testing.T) {
	core := fault.NewCore("h", xrand.New(9))
	cfg := Deep()
	cfg.MaxOps = 50_000
	rep := Screen(core, cfg, xrand.New(10))
	// The budget check runs between workloads, so allow one workload of
	// overshoot.
	if rep.OpsUsed > cfg.MaxOps+5_000_000 {
		t.Fatalf("ops budget wildly exceeded: %d", rep.OpsUsed)
	}
	if rep.OpsUsed < cfg.MaxOps/2 {
		t.Fatalf("budget barely used: %d", rep.OpsUsed)
	}
}

func TestScreenCoverageAccounting(t *testing.T) {
	core := fault.NewCore("h", xrand.New(11))
	rep := Screen(core, NewConfig(), xrand.New(12))
	for _, u := range []fault.Unit{fault.UnitALU, fault.UnitMul, fault.UnitVec,
		fault.UnitCrypto, fault.UnitAtomic, fault.UnitFPU, fault.UnitLSU} {
		if !rep.UnitsCovered[u] {
			t.Fatalf("unit %v not covered by full corpus", u)
		}
	}
}

func TestScreenStopOnDetectFalseKeepsGoing(t *testing.T) {
	d := fault.Defect{ID: "d", Unit: fault.UnitALU, BaseRate: 1e-3,
		Kind: fault.CorruptBitFlip, BitPos: 2}
	core := fault.NewCore("m", xrand.New(13), d)
	cfg := Config{Passes: 3}
	rep := Screen(core, cfg, xrand.New(14))
	if !rep.Detected {
		t.Fatal("no detection")
	}
	if len(rep.Detections) < 2 {
		t.Fatalf("expected multiple detections without StopOnDetect, got %d", len(rep.Detections))
	}
	if rep.PassesRun != 3 {
		t.Fatalf("PassesRun = %d, want 3", rep.PassesRun)
	}
}

func TestScreenDeterministic(t *testing.T) {
	mk := func() *fault.Core {
		d := fault.Defect{ID: "d", Unit: fault.UnitVec, BaseRate: 1e-4,
			Kind: fault.CorruptWrongLane}
		return fault.NewCore("m", xrand.New(15), d)
	}
	r1 := Screen(mk(), NewConfig(), xrand.New(16))
	r2 := Screen(mk(), NewConfig(), xrand.New(16))
	if r1.Detected != r2.Detected || r1.OpsUsed != r2.OpsUsed ||
		len(r1.Detections) != len(r2.Detections) {
		t.Fatalf("screen not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestSweepPoints(t *testing.T) {
	pts := SweepPoints(3, 2, 2)
	if len(pts) != 12 {
		t.Fatalf("got %d points, want 12", len(pts))
	}
	pts = SweepPoints(1, 1, 1)
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	pts = SweepPoints(0, 0, 0)
	if len(pts) != 1 {
		t.Fatalf("clamped sweep: %d points", len(pts))
	}
}

func TestSweepIncludesStressCorners(t *testing.T) {
	pts := SweepPoints(3, 3, 3)
	var sawHot, sawCold, sawLowV bool
	for _, p := range pts {
		if p.TempC >= 90 {
			sawHot = true
		}
		if p.FreqGHz <= 2.1 {
			sawCold = true
		}
		if p.VoltageV <= 0.86 {
			sawLowV = true
		}
	}
	if !sawHot || !sawCold || !sawLowV {
		t.Fatal("sweep misses stress corners")
	}
}

func TestFVTSweepCatchesLowFreqDefect(t *testing.T) {
	// A §5 lower-frequency-worse defect: nearly silent at nominal 3 GHz,
	// hot at 2 GHz. The sweep must catch it.
	d := fault.Defect{ID: "d", Unit: fault.UnitALU, BaseRate: 3e-7,
		Sens: fault.Sensitivity{Freq: -6},
		Kind: fault.CorruptXORMask, Mask: 0x40}
	catches := 0
	const trials = 8
	for i := uint64(0); i < trials; i++ {
		core := fault.NewCore("m", xrand.New(30+i), d)
		cfg := Config{Passes: 2, Points: SweepPoints(3, 1, 1), StopOnDetect: true}
		rep := Screen(core, cfg, xrand.New(40+i))
		if rep.Detected {
			catches++
			// The detection should come from a low-frequency point.
			if rep.Detections[0].Point.FreqGHz > 2.9 {
				t.Fatalf("detection at high frequency %v is implausible",
					rep.Detections[0].Point.FreqGHz)
			}
		}
	}
	if catches == 0 {
		t.Fatal("sweep never caught the low-frequency defect")
	}
}

func TestLatentDefectInvisibleUntilOnset(t *testing.T) {
	d := fault.Defect{ID: "d", Unit: fault.UnitALU, BaseRate: 1e-3,
		Kind: fault.CorruptBitFlip, BitPos: 8, Onset: 2 * simtime.Year}
	core := fault.NewCore("m", xrand.New(17), d)
	core.Age = simtime.Year
	if Screen(core, NewConfig(), xrand.New(18)).Detected {
		t.Fatal("latent defect detected before onset")
	}
	core.Age = 3 * simtime.Year
	if !Screen(core, NewConfig(), xrand.New(19)).Detected {
		t.Fatal("defect not detected after onset")
	}
}

func TestOnlineTickBudget(t *testing.T) {
	core := fault.NewCore("h", xrand.New(20))
	o := Online{BudgetOps: 200_000}
	found, ops := o.TickOn(core, xrand.New(21), 0)
	if len(found) != 0 {
		t.Fatal("healthy core produced online detections")
	}
	if ops < 200_000 {
		t.Fatalf("online tick underused budget: %d", ops)
	}
	if ops > 10_000_000 {
		t.Fatalf("online tick wildly overran budget: %d", ops)
	}
}

func TestOnlineEventuallyCatchesDefect(t *testing.T) {
	d := fault.Defect{ID: "d", Unit: fault.UnitVec, BaseRate: 1e-4,
		Kind: fault.CorruptBitFlip, BitPos: 21}
	core := fault.NewCore("m", xrand.New(22), d)
	o := Online{BudgetOps: 100_000}
	rng := xrand.New(23)
	caught := false
	for tick := 0; tick < 200 && !caught; tick++ {
		found, _ := o.TickOn(core, rng, 0)
		caught = len(found) > 0
	}
	if !caught {
		t.Fatal("online screening never caught a 1e-4 VEC defect in 200 ticks")
	}
}

func TestOnlineDefaultBudget(t *testing.T) {
	core := fault.NewCore("h", xrand.New(24))
	var o Online
	_, ops := o.TickOn(core, xrand.New(25), 0)
	if ops == 0 {
		t.Fatal("zero-value Online did no work")
	}
}

func BenchmarkQuickScreenHealthy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core := fault.NewCore("h", xrand.New(1))
		Screen(core, NewConfig(), xrand.New(2))
	}
}
