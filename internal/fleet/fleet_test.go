package fleet

import (
	"math"
	"testing"

	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/quarantine"
	"repro/internal/sched"
	"repro/internal/screen"
)

// testConfig returns a small, defect-dense fleet that exercises every
// mechanism quickly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Machines = 400
	cfg.CoresPerMachine = 16
	cfg.DefectsPerMachine = 0.05 // dense for test speed
	cfg.Seed = 7
	cfg.ConfessionConfig = screen.NewConfig(screen.WithPasses(60),
		screen.WithSweep(2, 1, 2), screen.WithMaxOps(15_000_000))
	return cfg
}

func TestPopulationIncidence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 5000
	cfg.CoresPerMachine = 8
	f := newFleet(cfg, nil)
	// "A few mercurial cores per several thousand machines": expected
	// 0.002 * 5000 = 10 defective cores.
	n := len(f.Defects())
	if n < 2 || n > 30 {
		t.Fatalf("defective cores = %d, want ~10", n)
	}
	// Typically one defective core per affected machine (§2).
	byMachine := map[string]int{}
	for _, d := range f.Defects() {
		byMachine[d.Machine]++
	}
	multi := 0
	for _, c := range byMachine {
		if c > 1 {
			multi++
		}
	}
	if multi > n/3 {
		t.Fatalf("too many multi-defect machines: %d of %d", multi, len(byMachine))
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := newFleet(testConfig(), nil)
	b := newFleet(testConfig(), nil)
	if len(a.Defects()) != len(b.Defects()) {
		t.Fatal("population not deterministic")
	}
	for i := range a.Defects() {
		da, db := a.Defects()[i], b.Defects()[i]
		if da.Machine != db.Machine || da.Core != db.Core ||
			da.Site.Defects[0].Class != db.Site.Defects[0].Class {
			t.Fatalf("defect %d differs", i)
		}
	}
}

func TestRunProducesTelemetry(t *testing.T) {
	r := newTestRunner(t, testConfig())
	days := r.Run(30)
	if len(days) != 30 {
		t.Fatalf("days = %d", len(days))
	}
	var corruptions, auto int64
	for _, d := range days {
		corruptions += d.Corruptions
		auto += int64(d.AutoReports)
	}
	if corruptions == 0 {
		t.Fatal("no corruptions in 30 days with dense defects")
	}
	if auto == 0 {
		t.Fatal("no automated reports")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := newTestRunner(t, testConfig()).Run(15)
	b := newTestRunner(t, testConfig()).Run(15)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("day %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestOutcomeSplitConserves(t *testing.T) {
	r := newTestRunner(t, testConfig())
	days := r.Run(20)
	for _, d := range days {
		var sum int64
		for _, v := range d.ByOutcome {
			sum += v
		}
		if sum != d.Corruptions {
			t.Fatalf("day %d: outcomes %v sum %d != corruptions %d",
				d.Day, d.ByOutcome, sum, d.Corruptions)
		}
	}
}

func TestSilentFractionDominates(t *testing.T) {
	// With the default probabilities, ~45% of corruptions are never
	// detected — the paper's central worry.
	r := newTestRunner(t, testConfig())
	days := r.Run(30)
	var silent, total int64
	for _, d := range days {
		silent += d.ByOutcome[OutcomeSilent]
		total += d.Corruptions
	}
	if total == 0 {
		t.Skip("no corruptions at this seed")
	}
	frac := float64(silent) / float64(total)
	if frac < 0.3 || frac > 0.6 {
		t.Fatalf("silent fraction = %v, want ~0.45", frac)
	}
}

func TestQuarantineIsMostlyTruePositive(t *testing.T) {
	r := newTestRunner(t, testConfig())
	f := r.Fleet()
	r.Run(60)
	recs := f.Manager().Records()
	if len(recs) == 0 {
		t.Fatal("nothing quarantined in 60 days with dense defects")
	}
	truth := map[sched.CoreRef]bool{}
	for _, d := range f.Defects() {
		truth[sched.CoreRef{Machine: d.Machine, Core: d.Core}] = true
	}
	tp := 0
	for _, r := range recs {
		if truth[r.Ref] {
			tp++
		}
	}
	if tp*2 < len(recs) {
		t.Fatalf("true positives %d of %d quarantines", tp, len(recs))
	}
	// With confession required, false positives should be rare.
	if fp := len(recs) - tp; fp > len(recs)/4 {
		t.Fatalf("false positives %d of %d", fp, len(recs))
	}
}

func TestQuarantineStopsSignals(t *testing.T) {
	cfg := testConfig()
	r := newTestRunner(t, cfg)
	days := r.Run(90)
	// Once hot defects are quarantined, active defects should shrink.
	if days[89].ActiveDefects >= days[0].ActiveDefects && days[0].ActiveDefects > 0 {
		// Aging can activate latent defects, so only require that the
		// quarantine machinery engaged at all.
		total := 0
		for _, d := range days {
			total += d.NewQuarantines
		}
		if total == 0 {
			t.Fatal("no quarantines despite persistent active defects")
		}
	}
}

func TestFig1AutoRateRises(t *testing.T) {
	// Fig. 1's headline shape: the automated detector's reported rate
	// gradually increases (corpus growth + aging onset), while the
	// user-reported rate stays comparatively flat.
	cfg := testConfig()
	cfg.Machines = 800
	cfg.DefectsPerMachine = 0.03
	// Disable quarantine so the series is not truncated by isolation
	// (Fig. 1 reports raw incident rates).
	cfg.Policy = quarantine.Policy{Mode: quarantine.CoreRemoval, MinScore: math.Inf(1)}
	r := newTestRunner(t, cfg)
	days := r.Run(365)
	rates := Normalize(WeeklyRates(days, cfg.Machines))
	if len(rates) < 50 {
		t.Fatalf("weeks = %d", len(rates))
	}
	autoSlope := TrendSlope(rates, func(r WeeklyRate) float64 { return r.Auto })
	if autoSlope <= 0 {
		t.Fatalf("auto-report slope = %v, want > 0", autoSlope)
	}
	// First-quarter vs last-quarter comparison, more robust than slope.
	q := len(rates) / 4
	var early, late float64
	for _, r := range rates[:q] {
		early += r.Auto
	}
	for _, r := range rates[len(rates)-q:] {
		late += r.Auto
	}
	if late <= early {
		t.Fatalf("auto rate did not rise: early=%v late=%v", early, late)
	}
}

func TestTriageConfirmationRoughlyHalf(t *testing.T) {
	// §6: "roughly half of these human-identified suspects are actually
	// proven, on deeper investigation, to be mercurial cores".
	cfg := testConfig()
	cfg.Machines = 800
	cfg.DefectsPerMachine = 0.03
	// Isolate the human channel: with automated quarantine active, hot
	// cores are isolated before humans ever get to investigate them.
	cfg.Policy = quarantine.Policy{Mode: quarantine.CoreRemoval, MinScore: math.Inf(1)}
	r := newTestRunner(t, cfg)
	f := r.Fleet()
	r.Run(120)
	tr := f.Triage
	if tr.Investigated < 5 {
		t.Skipf("only %d investigations; not enough signal", tr.Investigated)
	}
	rate := float64(tr.Confirmed) / float64(tr.Investigated)
	if rate < 0.15 || rate > 0.9 {
		t.Fatalf("confirmation rate = %v (%+v), want roughly half", rate, tr)
	}
	// The unconfirmed half must be a mix of false accusations and
	// limited reproducibility, as the paper describes.
	if tr.Confirmed+tr.FalseAccusations+tr.RealNotReproduced != tr.Investigated {
		t.Fatalf("triage ledger inconsistent: %+v", tr)
	}
}

func TestScreenCorpusGrows(t *testing.T) {
	cfg := testConfig()
	cfg.InitialCorpus = 3
	cfg.CorpusGrowEveryDays = 10
	f := newFleet(cfg, nil)
	if got := f.screenCorpusSize(0); got != 3 {
		t.Fatalf("day 0 corpus = %d", got)
	}
	if got := f.screenCorpusSize(25); got != 5 {
		t.Fatalf("day 25 corpus = %d", got)
	}
	if got := f.screenCorpusSize(100000); got != len(f.allWork) {
		t.Fatalf("corpus should cap at %d, got %d", len(f.allWork), got)
	}
}

func TestScreenCorpusGrowthDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.InitialCorpus = 0
	cfg.CorpusGrowEveryDays = 0
	f := newFleet(cfg, nil)
	if got := f.screenCorpusSize(50); got != len(f.allWork) {
		t.Fatalf("corpus = %d", got)
	}
}

func TestWeeklyRatesAggregation(t *testing.T) {
	days := make([]DayStats, 14)
	for i := range days {
		days[i].UserReports = 1
		days[i].AutoReports = 2
	}
	rates := WeeklyRates(days, 10)
	if len(rates) != 2 {
		t.Fatalf("weeks = %d", len(rates))
	}
	if rates[0].User != 0.7 || rates[0].Auto != 1.4 {
		t.Fatalf("week 0 = %+v", rates[0])
	}
	if WeeklyRates(days, 0) != nil {
		t.Fatal("zero machines should return nil")
	}
}

func TestNormalize(t *testing.T) {
	rates := []WeeklyRate{{0, 0, 0}, {1, 1, 2}, {2, 2, 4}}
	n := Normalize(rates)
	if n[1].Auto != 1 || n[2].Auto != 2 || n[1].User != 0.5 {
		t.Fatalf("normalized = %+v", n)
	}
	// All-zero series passes through.
	zero := []WeeklyRate{{0, 0, 0}}
	if out := Normalize(zero); out[0] != zero[0] {
		t.Fatal("zero series changed")
	}
}

func TestTrendSlope(t *testing.T) {
	rates := []WeeklyRate{{0, 0, 1}, {1, 0, 2}, {2, 0, 3}}
	s := TrendSlope(rates, func(r WeeklyRate) float64 { return r.Auto })
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("slope = %v", s)
	}
	if TrendSlope(rates[:1], func(r WeeklyRate) float64 { return r.Auto }) != 0 {
		t.Fatal("single-point slope should be 0")
	}
}

func TestSplitOutcomesSumsAndProbabilities(t *testing.T) {
	f := newFleet(testConfig(), nil)
	rng := f.rng.Fork(1)
	var totals [numOutcomes]int64
	const trials = 500
	const n = 100
	for i := 0; i < trials; i++ {
		out := f.splitOutcomes(n, rng)
		var sum int64
		for o, v := range out {
			if v < 0 {
				t.Fatalf("negative outcome count %v", out)
			}
			totals[o] += v
			sum += v
		}
		if sum != n {
			t.Fatalf("split sum %d != %d", sum, n)
		}
	}
	total := float64(trials * n)
	wants := map[Outcome]float64{
		OutcomeImmediate: pImmediateDetect,
		OutcomeCrash:     pCrash,
		OutcomeMCE:       pMCE,
		OutcomeLate:      pLateDetect,
	}
	for o, want := range wants {
		got := float64(totals[o]) / total
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("outcome %v rate %v want %v", o, got, want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeSilent.String() != "silent" || OutcomeCrash.String() != "crash" {
		t.Fatal("outcome names wrong")
	}
}

func TestMachineByID(t *testing.T) {
	f := newFleet(testConfig(), nil)
	if m := f.machineByID("m00037"); m.ID != "m00037" {
		t.Fatalf("machineByID = %s", m.ID)
	}
}

func TestPatternFraction(t *testing.T) {
	check := func(mask uint64, want float64) {
		d := fault.Defect{PatternMask: mask}
		if got := patternFraction(&d); got != want {
			t.Fatalf("mask %#x: %v want %v", mask, got, want)
		}
	}
	check(0, 1)
	check(0x7, 1.0/8)
	check(0xF0, 1.0/16)
}

func BenchmarkFleetDay(b *testing.B) {
	cfg := testConfig()
	f := newFleet(cfg, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Step()
	}
}

func TestSKUPopulationShapes(t *testing.T) {
	cfg := testConfig()
	cfg.Machines = 2000
	cfg.SKUs = []SKU{
		{Name: "quiet", Fraction: 0.5, DefectMultiplier: 0.2},
		{Name: "noisy", Fraction: 0.3, DefectMultiplier: 3},
		{Name: "aged", Fraction: 0.2, DefectMultiplier: 1, PreAgeDays: 1000},
	}
	f := newFleet(cfg, nil)
	counts := map[string]int{}
	for _, id := range f.Cluster().Machines() {
		counts[f.MachineSKU(id)]++
	}
	if counts["quiet"] < 800 || counts["noisy"] < 400 || counts["aged"] < 250 {
		t.Fatalf("SKU assignment off: %v", counts)
	}
	defects := map[string]int{}
	for _, d := range f.Defects() {
		defects[f.MachineSKU(d.Machine)]++
	}
	// noisy has 15x the per-machine defect rate of quiet but only 0.6x
	// the machines: it must dominate.
	if defects["noisy"] <= defects["quiet"] {
		t.Fatalf("defect density not SKU-scaled: %v", defects)
	}
}

func TestSKUPreAgingActivatesLatentDefects(t *testing.T) {
	base := testConfig()
	base.Machines = 3000
	fresh := base
	fresh.SKUs = []SKU{{Name: "fresh", Fraction: 1, DefectMultiplier: 1}}
	old := base
	old.SKUs = []SKU{{Name: "old", Fraction: 1, DefectMultiplier: 1, PreAgeDays: 2000}}

	countActive := func(cfg Config) (active, total int) {
		f := newFleet(cfg, nil)
		for _, d := range f.Defects() {
			total++
			if d.FirstActive == 0 {
				active++
			}
		}
		return active, total
	}
	freshActive, freshTotal := countActive(fresh)
	oldActive, oldTotal := countActive(old)
	if freshTotal == 0 || oldTotal == 0 {
		t.Skip("no defects sampled")
	}
	freshFrac := float64(freshActive) / float64(freshTotal)
	oldFrac := float64(oldActive) / float64(oldTotal)
	if oldFrac <= freshFrac {
		t.Fatalf("pre-aging did not activate latent defects: fresh=%.2f old=%.2f",
			freshFrac, oldFrac)
	}
}

func TestDefaultSKUBackwardCompatible(t *testing.T) {
	// A nil SKUs config must behave exactly like the pre-SKU simulator.
	a := newTestRunner(t, testConfig()).Run(10)
	b := newTestRunner(t, testConfig()).Run(10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nil-SKU runs diverge")
		}
	}
	f := newFleet(testConfig(), nil)
	if f.MachineSKU("m00000") != "default" {
		t.Fatalf("default SKU = %q", f.MachineSKU("m00000"))
	}
}

func TestRepairRestoresCapacityAndRetiresDefects(t *testing.T) {
	cfg := testConfig()
	cfg.RepairAfterDays = 7
	r := newTestRunner(t, cfg)
	f := r.Fleet()
	days := r.Run(90)
	totalQuar, totalRepair := 0, 0
	for _, d := range days {
		totalQuar += d.NewQuarantines
		totalRepair += d.RepairsDone
	}
	if totalQuar == 0 {
		t.Fatal("nothing quarantined; repair path unexercised")
	}
	if totalRepair == 0 {
		t.Fatal("no repairs completed despite quarantines and RepairAfterDays=7")
	}
	if f.Repairs != totalRepair {
		t.Fatalf("repair counters disagree: %d vs %d", f.Repairs, totalRepair)
	}
	// Repaired sites must be marked and their silicon removed.
	repaired := 0
	for _, d := range f.Defects() {
		if d.Repaired {
			repaired++
			if f.machineByID(d.Machine).Defective[d.Core] != nil {
				t.Fatal("repaired site still has defective silicon")
			}
		}
	}
	if repaired == 0 {
		t.Fatal("no sites marked repaired")
	}
	// Capacity: repaired cores are schedulable again. All quarantines
	// older than RepairAfterDays must be back; only recent ones offline.
	cap := f.Cluster().Capacity()
	if cap.Offline+cap.DrainedCores > totalQuar-totalRepair {
		t.Fatalf("capacity not restored: offline=%d drained=%d repairs=%d quarantines=%d",
			cap.Offline, cap.DrainedCores, totalRepair, totalQuar)
	}
}

func TestRepairDisabledByDefault(t *testing.T) {
	r := newTestRunner(t, testConfig())
	days := r.Run(60)
	for _, d := range days {
		if d.RepairsDone != 0 {
			t.Fatal("repairs happened with RepairAfterDays=0")
		}
	}
}

// TestReplaceSiliconReleasesEveryRecord pins that a whole-machine repair
// clears every isolation record on the machine, also one that a machine
// drain without a confession put on a healthy core: the new silicon
// carries no conviction forward.
func TestReplaceSiliconReleasesEveryRecord(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = quarantine.Policy{Mode: quarantine.MachineDrain}
	f := newFleet(cfg, nil)
	var m *Machine
	for _, cand := range f.machines {
		if len(cand.Defective) == 0 {
			m = cand
			break
		}
	}
	ref := sched.CoreRef{Machine: m.ID, Core: 3}
	rec, err := f.manager.Handle(detect.Suspect{Machine: ref.Machine, Core: ref.Core, Reports: 5, PValue: 1e-9}, 0, nil)
	if err != nil || rec == nil {
		t.Fatalf("Handle: record %v, err %v", rec, err)
	}
	var st DayStats
	f.replaceSilicon(m.ID, 1, &st)
	if f.manager.Isolated(ref) || len(f.manager.Records()) != 0 {
		t.Fatalf("after repair: %v isolated=%v, %d live records, want none", ref, f.manager.Isolated(ref), len(f.manager.Records()))
	}
	if m.outOfService(ref.Core) || st.RepairsDone != 1 {
		t.Fatalf("after repair: core out of service=%v, repairs %d, want back in service after 1 repair", m.outOfService(ref.Core), st.RepairsDone)
	}
}
