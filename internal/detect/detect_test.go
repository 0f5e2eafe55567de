package detect

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/screen"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

func TestSignalKindString(t *testing.T) {
	if SigCrash.String() != "crash" || SigUserReport.String() != "user-report" {
		t.Fatal("signal names wrong")
	}
	if !strings.Contains(SignalKind(42).String(), "42") {
		t.Fatal("unknown kind should include number")
	}
}

func TestTrackerNominatesConcentratedCore(t *testing.T) {
	tr := NewTracker(64)
	for i := 0; i < 8; i++ {
		tr.Add(Signal{Machine: "m1", Core: 17, Kind: SigAppError, Time: simtime.Time(i)})
	}
	sus := tr.Suspects()
	if len(sus) != 1 {
		t.Fatalf("suspects = %d, want 1", len(sus))
	}
	s := sus[0]
	if s.Machine != "m1" || s.Core != 17 || s.Reports != 8 {
		t.Fatalf("suspect = %+v", s)
	}
	if s.PValue > 1e-6 {
		t.Fatalf("p-value %v too large for 8 reports on one of 64 cores", s.PValue)
	}
	if s.Kinds[SigAppError] != 8 {
		t.Fatalf("kinds = %v", s.Kinds)
	}
	if s.First != 0 || s.Last != 7 {
		t.Fatalf("window = [%v, %v]", s.First, s.Last)
	}
}

func TestTrackerIgnoresEvenSpread(t *testing.T) {
	// The software-bug signature: reports spread over all cores.
	tr := NewTracker(32)
	for i := 0; i < 64; i++ {
		tr.Add(Signal{Machine: "m1", Core: i % 32, Kind: SigCrash})
	}
	if sus := tr.Suspects(); len(sus) != 0 {
		t.Fatalf("even spread nominated suspects: %+v", sus)
	}
}

func TestTrackerSingleReportInsufficient(t *testing.T) {
	// Recidivism requirement: one report never nominates.
	tr := NewTracker(64)
	tr.Add(Signal{Machine: "m1", Core: 3, Kind: SigCrash})
	if sus := tr.Suspects(); len(sus) != 0 {
		t.Fatalf("single report nominated: %+v", sus)
	}
}

func TestTrackerMachineLevelSignals(t *testing.T) {
	tr := NewTracker(8)
	tr.Add(Signal{Machine: "m1", Core: -1, Kind: SigMCE})
	tr.Add(Signal{Machine: "m1", Core: -1, Kind: SigMCE})
	if got := tr.Reports("m1"); got != 0 {
		t.Fatalf("machine-level signals should not count as core reports: %d", got)
	}
	if sus := tr.Suspects(); len(sus) != 0 {
		t.Fatalf("machine-level signals nominated a core: %+v", sus)
	}
	if tr.perMachine["m1"] != 2 {
		t.Fatal("machine-level count not recorded")
	}
}

func TestTrackerMultipleMachines(t *testing.T) {
	tr := NewTracker(16)
	for i := 0; i < 6; i++ {
		tr.Add(Signal{Machine: "mA", Core: 2, Kind: SigAppError})
		tr.Add(Signal{Machine: "mB", Core: 9, Kind: SigCrash})
	}
	sus := tr.Suspects()
	if len(sus) != 2 {
		t.Fatalf("suspects = %d, want 2", len(sus))
	}
	seen := map[string]int{}
	for _, s := range sus {
		seen[s.Machine] = s.Core
	}
	if seen["mA"] != 2 || seen["mB"] != 9 {
		t.Fatalf("suspects = %+v", sus)
	}
}

func TestTrackerRankingByScore(t *testing.T) {
	tr := NewTracker(64)
	for i := 0; i < 3; i++ {
		tr.Add(Signal{Machine: "weak", Core: 1, Kind: SigCrash})
	}
	for i := 0; i < 20; i++ {
		tr.Add(Signal{Machine: "strong", Core: 2, Kind: SigCrash})
	}
	sus := tr.Suspects()
	if len(sus) != 2 {
		t.Fatalf("suspects = %d", len(sus))
	}
	if sus[0].Machine != "strong" {
		t.Fatalf("ranking wrong: %+v", sus)
	}
	if sus[0].Score() <= sus[1].Score() {
		t.Fatal("scores not ordered")
	}
}

func TestTrackerDeterministicOrder(t *testing.T) {
	build := func() []Suspect {
		tr := NewTracker(8)
		for _, m := range []string{"m3", "m1", "m2"} {
			for i := 0; i < 5; i++ {
				tr.Add(Signal{Machine: m, Core: 0, Kind: SigCrash})
			}
		}
		return tr.Suspects()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Machine != b[i].Machine || a[i].Core != b[i].Core {
			t.Fatalf("order not deterministic: %+v vs %+v", a, b)
		}
	}
}

func TestTrackerNoisePlusHotCore(t *testing.T) {
	// Realistic mix: background software-bug noise over all cores plus a
	// genuinely hot core. Only the hot core should surface.
	tr := NewTracker(32)
	rng := xrand.New(9)
	for i := 0; i < 30; i++ {
		tr.Add(Signal{Machine: "m", Core: rng.Intn(32), Kind: SigCrash})
	}
	for i := 0; i < 25; i++ {
		tr.Add(Signal{Machine: "m", Core: 7, Kind: SigAppError})
	}
	sus := tr.Suspects()
	if len(sus) == 0 {
		t.Fatal("hot core not nominated over noise")
	}
	if sus[0].Core != 7 {
		t.Fatalf("top suspect core = %d, want 7", sus[0].Core)
	}
	if sus[0].Gini <= 0.3 {
		t.Fatalf("gini = %v, want concentrated", sus[0].Gini)
	}
}

func TestSuspectScoreMonotoneInReports(t *testing.T) {
	a := Suspect{Reports: 2, PValue: 1e-4}
	b := Suspect{Reports: 10, PValue: 1e-4}
	if b.Score() <= a.Score() {
		t.Fatal("score should grow with reports")
	}
	c := Suspect{Reports: 2, PValue: 1e-12}
	if c.Score() <= a.Score() {
		t.Fatal("score should grow as p-value shrinks")
	}
}

func TestSuspectScoreHandlesZeroPValue(t *testing.T) {
	s := Suspect{Reports: 5, PValue: 0}
	if sc := s.Score(); sc <= 0 || sc != sc /* NaN check */ {
		t.Fatalf("score = %v", sc)
	}
}

func TestConfessConfirmsRealDefect(t *testing.T) {
	d := fault.Defect{ID: "d", Unit: fault.UnitALU, BaseRate: 1e-4,
		Kind: fault.CorruptBitFlip, BitPos: 3}
	core := fault.NewCore("guilty", xrand.New(1), d)
	conf := Confess(core, screen.Deep(), xrand.New(2))
	if !conf.Confirmed {
		t.Fatal("deep screen failed to extract a confession from a 1e-4 defect")
	}
	if conf.CoreID != "guilty" {
		t.Fatalf("core id %q", conf.CoreID)
	}
}

func TestConfessExoneratesHealthyCore(t *testing.T) {
	core := fault.NewCore("innocent", xrand.New(3))
	conf := Confess(core, screen.Deep(), xrand.New(4))
	if conf.Confirmed {
		t.Fatal("healthy core confessed")
	}
	if conf.Report.OpsUsed == 0 {
		t.Fatal("no screening work recorded")
	}
}

func TestTrackerTimeWindow(t *testing.T) {
	tr := NewTracker(4)
	tr.Add(Signal{Machine: "m", Core: 0, Kind: SigCrash, Time: 100})
	tr.Add(Signal{Machine: "m", Core: 0, Kind: SigCrash, Time: 50})
	tr.Add(Signal{Machine: "m", Core: 0, Kind: SigCrash, Time: 200})
	tr.Add(Signal{Machine: "m", Core: 0, Kind: SigCrash, Time: 150})
	tr.Alpha = 1 // accept anything for this test
	sus := tr.Suspects()
	if len(sus) != 1 {
		t.Fatalf("suspects = %d", len(sus))
	}
	if sus[0].First != 50 || sus[0].Last != 200 {
		t.Fatalf("window = [%v, %v]", sus[0].First, sus[0].Last)
	}
}

// TestTrackerOutOfRangeCoreIndex feeds cores the machine does not have:
// each is counted as refused, none reaches the census, nothing is
// nominated — five reports on core 9 of a 4-core machine used to nominate
// it with p = 0 — and the concentration test does not panic.
func TestTrackerOutOfRangeCoreIndex(t *testing.T) {
	tr := NewTracker(4)
	for i := 0; i < 5; i++ {
		for _, core := range []int{4, 9, -2} {
			tr.Add(Signal{Machine: "m", Core: core, Kind: SigCrash})
		}
	}
	if sus := tr.Suspects(); len(sus) != 0 {
		t.Fatalf("suspects = %+v, want none", sus)
	}
	if tr.refused != 15 || tr.Reports("m") != 0 || tr.ReportingMachines() != 0 {
		t.Fatalf("refused %d, reports %d, machines %d; want 15, 0, 0",
			tr.refused, tr.Reports("m"), tr.ReportingMachines())
	}
	tr.Add(Signal{Machine: "m", Core: 3, Kind: SigCrash})
	tr.Add(Signal{Machine: "m", Core: -1, Kind: SigCrash})
	if tr.Reports("m") != 1 || tr.ReportingMachines() != 1 {
		t.Fatalf("in-range cores not ingested: reports %d, machines %d", tr.Reports("m"), tr.ReportingMachines())
	}
}

func BenchmarkTrackerSuspects(b *testing.B) {
	tr := NewTracker(128)
	rng := xrand.New(1)
	for m := 0; m < 50; m++ {
		machine := string(rune('a' + m%26))
		for i := 0; i < 40; i++ {
			tr.Add(Signal{Machine: machine, Core: rng.Intn(128), Kind: SigCrash})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Suspects()
	}
}

func TestForgetMachine(t *testing.T) {
	tr := NewTracker(8)
	for i := 0; i < 6; i++ {
		tr.Add(Signal{Machine: "m", Core: 1, Kind: SigCrash})
	}
	if len(tr.Suspects()) != 1 {
		t.Fatal("setup: no suspect")
	}
	tr.Forget("m")
	if len(tr.Suspects()) != 0 {
		t.Fatal("forgotten machine still nominated")
	}
	if tr.Reports("m") != 0 {
		t.Fatal("reports survived Forget")
	}
}

func TestForgetCore(t *testing.T) {
	tr := NewTracker(8)
	for i := 0; i < 6; i++ {
		tr.Add(Signal{Machine: "m", Core: 1, Kind: SigCrash})
		tr.Add(Signal{Machine: "m", Core: 3, Kind: SigCrash})
	}
	tr.ForgetCore("m", 1)
	sus := tr.Suspects()
	if len(sus) != 1 || sus[0].Core != 3 {
		t.Fatalf("suspects after ForgetCore = %+v", sus)
	}
	// Forgetting the last core clears the machine entry.
	tr.ForgetCore("m", 3)
	if len(tr.Suspects()) != 0 || len(tr.perCore) != 0 {
		t.Fatal("machine entry not cleared")
	}
	// Forgetting unknown machine/core is a no-op.
	tr.ForgetCore("nope", 0)
	tr.Forget("nope")
}

func TestReportingMachines(t *testing.T) {
	tr := NewTracker(8)
	if tr.ReportingMachines() != 0 {
		t.Fatal("fresh tracker has reporters")
	}
	tr.Add(Signal{Machine: "a", Core: 1, Kind: SigCrash})
	tr.Add(Signal{Machine: "a", Core: 2, Kind: SigMCE})
	tr.Add(Signal{Machine: "b", Core: -1, Kind: SigCrash}) // machine-level only
	tr.Add(Signal{Machine: "c", Core: 0, Kind: SigAppError})
	if got := tr.ReportingMachines(); got != 3 {
		t.Fatalf("ReportingMachines = %d, want 3", got)
	}
	// The census is lifetime, not live state: Forget does not shrink it.
	tr.Forget("a")
	tr.ForgetCore("c", 0)
	if got := tr.ReportingMachines(); got != 3 {
		t.Fatalf("ReportingMachines after Forget = %d, want 3", got)
	}
}

// TestAddAllocs pins Tracker.Add's allocation budget at 0 for a signal on
// a core the tracker already holds: the per-core stats are found by map
// lookup and counted in place. A budget may fall when a change earns it,
// never rise to let one pass.
func TestAddAllocs(t *testing.T) {
	tr := NewTracker(64)
	s := Signal{Machine: "m1", Core: 5, Kind: SigCrash}
	tr.Add(s)
	if got := testing.AllocsPerRun(1000, func() { s.Time++; tr.Add(s) }); got != 0 {
		t.Errorf("Add on an existing core allocates %v per signal, budget 0 (earned by in-place per-core counts)", got)
	}
}
