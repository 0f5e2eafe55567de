package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../../experiments_output.txt from the registry")

// smallResults memoises each experiment at Small scale, so the band
// tests and the golden share one run per experiment.
var smallResults = map[string]Result{}

func small(id string) Result {
	r, ok := smallResults[id]
	if !ok {
		r = Registry[id](Small)
		smallResults[id] = r
	}
	return r
}

// TestExperimentsGolden renders every experiment at Small scale exactly
// as 'fleetsim experiments' prints it and compares the text with the
// checked-in experiments_output.txt. Run with -update to regenerate it.
func TestExperimentsGolden(t *testing.T) {
	const golden = "../../experiments_output.txt"
	var got bytes.Buffer
	if err := writeTables(&got, IDs(), small); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", golden, i+1, g, w)
			}
		}
	}
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	ids := IDs()
	want := []string{"F1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestE1IncidenceMatchesPaperOrder(t *testing.T) {
	r := small("E1").(E1Result)
	// "A few mercurial cores per several thousand machines": the rate
	// per thousand must be order-1, not order-10 or order-0.01.
	if r.PerThousandMach < 0.5 || r.PerThousandMach > 10 {
		t.Fatalf("incidence %.2f per 1000 machines out of band", r.PerThousandMach)
	}
	if !strings.Contains(r.Table(), "per 1000 machines") {
		t.Fatal("table malformed")
	}
}

func TestE2OutcomesSumAndSilentShare(t *testing.T) {
	r := small("E2").(E2Result)
	var sum int64
	for _, v := range r.ByOutcome {
		sum += v
	}
	if sum != r.Total {
		t.Fatalf("outcomes sum %d != total %d", sum, r.Total)
	}
	if r.Total == 0 {
		t.Fatal("no corruptions simulated")
	}
	silent := float64(r.ByOutcome[4]) / float64(r.Total)
	if silent < 0.3 || silent > 0.6 {
		t.Fatalf("silent share %v out of band", silent)
	}
	if !strings.Contains(r.Table(), "never detected") {
		t.Fatal("table malformed")
	}
}

func TestE3SpreadAndFreqShapes(t *testing.T) {
	r := small("E3").(E3Result)
	if len(r.Rates) < 30 {
		t.Fatalf("only %d defects characterized", len(r.Rates))
	}
	if r.DecadeSpread < 4 {
		t.Fatalf("rate spread %d decades; paper needs 'many orders of magnitude'", r.DecadeSpread)
	}
	if r.EmpiricalChecked == 0 {
		t.Fatal("no hot-tail defects validated empirically")
	}
	if r.EmpiricalAgree*3 < r.EmpiricalChecked*2 {
		t.Fatalf("empirical validation weak: %d/%d", r.EmpiricalAgree, r.EmpiricalChecked)
	}
	fs := r.FreqCurves["freq-sensitive"]
	if fs[len(fs)-1] <= fs[0] {
		t.Fatal("freq-sensitive curve should rise with frequency")
	}
	fi := r.FreqCurves["freq-insensitive"]
	if fi[0] != fi[len(fi)-1] {
		t.Fatal("freq-insensitive curve should be flat")
	}
	lw := r.FreqCurves["low-freq-worse"]
	if lw[0] <= lw[len(lw)-1] {
		t.Fatal("low-freq-worse curve should fall with frequency")
	}
	if !strings.Contains(r.Table(), "decades") {
		t.Fatal("table malformed")
	}
}

func TestE4MoreBudgetNeverWorse(t *testing.T) {
	r := small("E4").(E4Result)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The largest online budget must detect at least as much as the
	// signals-only baseline.
	base := r.Rows[0].DetectedFraction
	big := r.Rows[len(r.Rows)-1].DetectedFraction
	if big < base {
		t.Fatalf("screening hurt detection: %v -> %v", base, big)
	}
	_ = r.Table()
}

func TestE5RoughlyHalf(t *testing.T) {
	r := small("E5").(E5Result)
	if r.Investigated == 0 {
		t.Fatal("no investigations")
	}
	if rate := r.ConfirmationRate(); rate < 0.15 || rate > 0.9 {
		t.Fatalf("confirmation rate %v out of 'roughly half' band (%+v)", rate, r.TriageStats)
	}
	if r.FalseAccusations+r.RealNotReproduced == 0 {
		t.Fatal("unconfirmed mix missing")
	}
}

func TestE6SafeTasksSalvagesCapacity(t *testing.T) {
	r := small("E6").(E6Result)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	drain, removal, safe := r.Rows[0], r.Rows[1], r.Rows[2]
	if drain.Mode != "machine-drain" || removal.Mode != "core-removal" || safe.Mode != "safe-tasks" {
		t.Fatalf("row order wrong: %+v", r.Rows)
	}
	// With comparable quarantine counts, machine drain must cost the
	// most cores; safe-tasks must salvage some.
	if drain.QuarantinedRefs > 0 && removal.QuarantinedRefs > 0 &&
		drain.CoresLost <= removal.CoresLost {
		t.Fatalf("drain (%d) should cost more cores than removal (%d)",
			drain.CoresLost, removal.CoresLost)
	}
	if safe.CoresSalvaged == 0 && safe.QuarantinedRefs > 0 {
		t.Log("safe-tasks salvaged nothing (unit attribution may have fallen back to removal)")
	}
	_ = r.Table()
}

func TestE7MitigationShapes(t *testing.T) {
	r := small("E7").(E7Result)
	rows := map[string]E7Row{}
	for _, row := range r.Rows {
		rows[row.Mechanism] = row
	}
	un := rows["unprotected"]
	dmr := rows["dmr-retry"]
	tmr := rows["tmr-vote"]
	if un.OpsRatio != 1 {
		t.Fatalf("baseline ratio = %v", un.OpsRatio)
	}
	// Who wins: protection reduces wrong-accepted to (near) zero.
	if un.WrongAccepted == 0 {
		t.Fatal("unprotected baseline accepted nothing wrong; defect too cold")
	}
	if dmr.WrongAccepted > 0 || tmr.WrongAccepted > 0 {
		t.Fatalf("mitigated runs accepted wrong answers: dmr=%d tmr=%d",
			dmr.WrongAccepted, tmr.WrongAccepted)
	}
	// By what factor: DMR ~2x, TMR ~3x.
	if dmr.OpsRatio < 1.8 || dmr.OpsRatio > 2.6 {
		t.Fatalf("DMR ratio %v, want ~2", dmr.OpsRatio)
	}
	if tmr.OpsRatio < 2.7 || tmr.OpsRatio > 3.5 {
		t.Fatalf("TMR ratio %v, want ~3", tmr.OpsRatio)
	}
	vl := rows["verified-lib"]
	if vl.WrongAccepted > 0 {
		t.Fatalf("verified library accepted wrong ciphertext %d times", vl.WrongAccepted)
	}
	_ = r.Table()
}

func TestE8AmortizationFlat(t *testing.T) {
	r := small("E8").(E8Result)
	if len(r.Rows) < 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Checksum cost per byte is ~constant (amortized): largest block
	// within 25% of smallest.
	first := r.Rows[0].ChecksumOpsPerByte
	last := r.Rows[len(r.Rows)-1].ChecksumOpsPerByte
	if last > first*1.25 || first > last*1.25 {
		t.Fatalf("checksum cost not amortized: %v vs %v", first, last)
	}
	if r.DuplicationFactor < 2 {
		t.Fatalf("duplication factor %v", r.DuplicationFactor)
	}
	_ = r.Table()
}

func TestE9CheckerWins(t *testing.T) {
	r := small("E9").(E9Result)
	if r.FreivaldsOpsFraction >= 0.5 {
		t.Fatalf("checker not cheaper: %v", r.FreivaldsOpsFraction)
	}
	if r.FreivaldsCatchRate < 0.4 {
		t.Fatalf("one-round catch rate %v below the >=1/2 guarantee band", r.FreivaldsCatchRate)
	}
	if r.CheckedSortRecoveries == 0 {
		t.Fatal("certified sort never needed (or performed) a recovery")
	}
	if r.ABFTEscaped != 0 {
		t.Fatalf("ABFT let %d wrong products escape", r.ABFTEscaped)
	}
	if r.ABFTCorrected == 0 {
		t.Fatal("ABFT never corrected anything; defect too cold")
	}
	if r.ABFTOverhead > 1.3 {
		t.Fatalf("ABFT overhead %v implausibly high", r.ABFTOverhead)
	}
	_ = r.Table()
}

func TestE10AllIncidentsReproduce(t *testing.T) {
	r := small("E10").(E10Result)
	if r.Passed != len(r.Incidents) {
		t.Fatalf("incidents: %d/%d\n%s", r.Passed, len(r.Incidents), r.Table())
	}
	if len(r.Incidents) < 4 {
		t.Fatalf("only %d incidents staged", len(r.Incidents))
	}
}

func TestE11AgingMix(t *testing.T) {
	r := small("E11").(E11Result)
	if r.ImmediateN == 0 || r.LatentN == 0 {
		t.Fatalf("population not mixed: %+v", r)
	}
	if r.MedianLatentDays <= 0 {
		t.Fatalf("median latent onset %v", r.MedianLatentDays)
	}
	if len(r.OnsetDays) != r.ImmediateN+r.LatentN {
		t.Fatal("onset ledger inconsistent")
	}
	_ = r.Table()
}

func TestE12CoverageMatters(t *testing.T) {
	r := small("E12").(E12Result)
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	first := r.Points[0].DetectedFraction
	last := r.Points[len(r.Points)-1].DetectedFraction
	if last < first {
		t.Fatalf("more coverage detected less: %v -> %v", first, last)
	}
	_ = r.Table()
}

func TestF1Shape(t *testing.T) {
	r := small("F1").(F1Result)
	if len(r.Rates) < 20 {
		t.Fatalf("weeks = %d", len(r.Rates))
	}
	if r.AutoSlope <= 0 {
		t.Fatalf("auto slope %v, want rising", r.AutoSlope)
	}
	// User slope should be much flatter than the auto slope.
	if r.UserSlope > r.AutoSlope {
		t.Fatalf("user slope %v exceeds auto slope %v", r.UserSlope, r.AutoSlope)
	}
	table := r.Table()
	if !strings.Contains(table, "gradually increasing") {
		t.Fatal("table malformed")
	}
}

func TestE13Amplification(t *testing.T) {
	r := small("E13").(E13Result)
	if r.CorruptedWraps == 0 {
		t.Fatal("no key wraps corrupted; defect too cold")
	}
	if r.KeyAmplification < 10 {
		t.Fatalf("key-wrap amplification %v, want large blast radius", r.KeyAmplification)
	}
	if r.ChainCorruptions == 0 {
		t.Fatal("no chain corruptions")
	}
	if r.ChainAmplification <= 1 {
		t.Fatalf("chain amplification %v, want > 1 (sticky corruption)", r.ChainAmplification)
	}
	if r.ChainErrors < r.ChainCorruptions {
		t.Fatal("errors cannot be fewer than corruptions in a poisoned suffix")
	}
	_ = r.Table()
}

func TestE14SKURiskShapes(t *testing.T) {
	r := small("E14").(E14Result)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]E14Row{}
	totalMachines := 0
	for _, row := range r.Rows {
		byName[row.SKU] = row
		totalMachines += row.Machines
		if row.Machines == 0 {
			t.Fatalf("SKU %s got no machines", row.SKU)
		}
	}
	mature := byName["vendorA-mature"]
	dense := byName["vendorB-new"]
	aged := byName["vendorA-aged"]
	// The dense product must show a higher per-1000 incidence than the
	// mature one (5x multiplier difference dwarfs sampling noise at this
	// density).
	if dense.PerThousand <= mature.PerThousand {
		t.Fatalf("dense SKU incidence %.2f <= mature %.2f",
			dense.PerThousand, mature.PerThousand)
	}
	// Pre-aged machines surface latent defects: active fraction should
	// not trail the mature SKU when both have defects.
	if aged.MercurialCores > 0 && aged.ActiveByEnd == 0 {
		t.Fatalf("aged SKU has %d defects but none active", aged.MercurialCores)
	}
	_ = r.Table()
}
