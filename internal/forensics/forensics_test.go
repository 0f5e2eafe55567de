package forensics

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/screen"
	"repro/internal/xrand"
)

// characterize runs a full (no-early-stop) screen for classification.
func characterize(t *testing.T, core *fault.Core, seed uint64) screen.Report {
	t.Helper()
	cfg := screen.NewConfig(screen.WithPasses(3), screen.WithSweep(2, 1, 2),
		screen.WithStopOnDetect(false))
	return screen.Screen(core, cfg, xrand.New(seed))
}

func TestClassifyDeterministicCrypto(t *testing.T) {
	d := fault.Defect{ID: "d", Unit: fault.UnitCrypto, Deterministic: true,
		Kind: fault.CorruptXORMask, Mask: 1 << 5}
	core := fault.NewCore("c", xrand.New(2), d)
	mode, ok := Classify(characterize(t, core, 3))
	if !ok {
		t.Fatal("nothing to classify")
	}
	if !mode.Deterministic {
		t.Fatalf("deterministic defect classified as intermittent: %v", mode)
	}
	hasCrypto := false
	for _, u := range mode.Units {
		if u == fault.UnitCrypto {
			hasCrypto = true
		}
	}
	if !hasCrypto {
		t.Fatalf("crypto unit not implicated: %v", mode)
	}
	if !strings.Contains(mode.Key(), "/det") {
		t.Fatalf("key = %q", mode.Key())
	}
}

func TestClassifyNothing(t *testing.T) {
	core := fault.NewCore("h", xrand.New(4))
	if _, ok := Classify(characterize(t, core, 5)); ok {
		t.Fatal("healthy core produced a classification")
	}
}

func TestSameClassSameSignature(t *testing.T) {
	mk := func(seed uint64) Mode {
		d := fault.Defect{ID: "d", Unit: fault.UnitVec, Deterministic: true,
			Kind: fault.CorruptWrongLane}
		core := fault.NewCore("c", xrand.New(seed), d)
		m, ok := Classify(characterize(t, core, seed+10))
		if !ok {
			t.Fatal("no classification")
		}
		return m
	}
	a, b := mk(6), mk(7)
	if a.Key() != b.Key() {
		t.Fatalf("same defect class classified differently: %q vs %q", a.Key(), b.Key())
	}
}

func TestDifferentUnitsDifferentSignature(t *testing.T) {
	mkMode := func(u fault.Unit, seed uint64) Mode {
		d := fault.Defect{ID: "d", Unit: u, Deterministic: true,
			Kind: fault.CorruptOffByOne, Delta: 1}
		core := fault.NewCore("c", xrand.New(seed), d)
		m, ok := Classify(characterize(t, core, seed+20))
		if !ok {
			t.Fatal("no classification")
		}
		return m
	}
	// Note: UnitAtomic is unusable here — a deterministic store-value
	// corruption on CAS keeps the lock workload's mutual exclusion
	// intact and is invisible to the whole corpus, a genuine coverage
	// gap of the kind §4 warns about.
	crypto := mkMode(fault.UnitCrypto, 8)
	fpu := mkMode(fault.UnitFPU, 9)
	if crypto.Key() == fpu.Key() {
		t.Fatalf("distinct units share signature %q", crypto.Key())
	}
}

func TestModeDBNovelty(t *testing.T) {
	db := NewModeDB()
	m1 := Mode{Units: []fault.Unit{fault.UnitALU}, Deterministic: false}
	m2 := Mode{Units: []fault.Unit{fault.UnitCrypto}, Deterministic: true}
	if !db.Observe(m1) {
		t.Fatal("first observation not novel")
	}
	if db.Observe(m1) {
		t.Fatal("second observation still novel")
	}
	if !db.Observe(m2) {
		t.Fatal("distinct mode not novel")
	}
	if len(db.seen) != 2 || db.seen[m1.Key()] != 2 || db.seen[m2.Key()] != 1 {
		t.Fatalf("seen = %v", db.seen)
	}
}

func TestModeString(t *testing.T) {
	m := Mode{Units: []fault.Unit{fault.UnitALU, fault.UnitMul}}
	if got := m.String(); !strings.Contains(got, "ALU+MUL/int") {
		t.Fatalf("string = %q", got)
	}
}
