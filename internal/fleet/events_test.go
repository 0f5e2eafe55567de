package fleet

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/quarantine"
	"repro/internal/screen"
	"repro/internal/simtime"
)

// eventTestConfig is a small clean fleet (no background defects) so
// every observation traces back to the event under test.
func eventTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Machines = 50
	cfg.CoresPerMachine = 8
	cfg.DefectsPerMachine = 0
	cfg.Seed = 3
	cfg.ConfessionConfig = screen.NewConfig(screen.WithPasses(20),
		screen.WithSweep(2, 1, 2), screen.WithMaxOps(4_000_000))
	return cfg
}

func hotDefect(bit uint) fault.Defect {
	return fault.Defect{
		Unit:     fault.UnitALU,
		Kind:     fault.CorruptBitFlip,
		BitPos:   bit,
		BaseRate: 1e-6,
	}
}

func TestInjectDefectValidation(t *testing.T) {
	f := newFleet(eventTestConfig(), nil)
	// A machine id is accepted only in the form the fleet names machines
	// with; m1 is not m00001, and m+1 must not reach the index arithmetic.
	for _, id := range []string{"nope", "m1", "m+1", "m-1", "m000001"} {
		if err := f.InjectDefect(id, 0, hotDefect(1)); err == nil {
			t.Errorf("bad machine id %q accepted", id)
		}
	}
	if err := f.InjectDefect("m00099", 0, hotDefect(1)); err == nil {
		t.Error("out-of-range machine accepted")
	}
	if err := f.InjectDefect("m00001", 99, hotDefect(1)); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := f.InjectDefect("m00001", 2, hotDefect(1)); err != nil {
		t.Fatalf("valid injection rejected: %v", err)
	}
	if err := f.InjectDefect("m00001", 2, hotDefect(2)); err == nil {
		t.Error("double injection on one core accepted")
	}
	if n := len(f.Defects()); n != 1 {
		t.Errorf("defect sites = %d, want 1", n)
	}
}

func TestInjectedDefectCorruptsAndOnsetDelays(t *testing.T) {
	f := newFleet(eventTestConfig(), nil)
	if err := f.InjectDefect("m00004", 1, hotDefect(7)); err != nil {
		t.Fatal(err)
	}
	late := hotDefect(9)
	late.Onset = 30 * simtime.Day // delay from injection, not install age
	if err := f.InjectDefect("m00005", 2, late); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for day := 0; day < 10; day++ {
		total += f.Step().Corruptions
	}
	if total == 0 {
		t.Error("hot injected defect produced no corruptions in 10 days")
	}
	sites := f.Defects()
	if sites[1].FirstActive != 30*simtime.Day {
		t.Errorf("delayed site FirstActive = %v, want 30 days", sites[1].FirstActive)
	}
}

func TestDrainSuspendsAndUndrainResumes(t *testing.T) {
	f := newFleet(eventTestConfig(), nil)
	if err := f.InjectDefect("m00006", 3, hotDefect(5)); err != nil {
		t.Fatal(err)
	}
	if err := f.DrainMachine("m00006"); err != nil {
		t.Fatal(err)
	}
	if err := f.DrainMachine("m00006"); err != nil {
		t.Fatalf("drain must be idempotent: %v", err)
	}
	drained := int64(0)
	for day := 0; day < 8; day++ {
		drained += f.Step().Corruptions
	}
	if drained != 0 {
		t.Errorf("drained machine corrupted %d results", drained)
	}
	if err := f.UndrainMachine("m00006"); err != nil {
		t.Fatal(err)
	}
	resumed := int64(0)
	for day := 0; day < 8; day++ {
		resumed += f.Step().Corruptions
	}
	if resumed == 0 {
		t.Error("undrained machine never resumed corrupting")
	}
}

func TestSetOperatingPointChangesRates(t *testing.T) {
	f := newFleet(eventTestConfig(), nil)
	cold := fault.Defect{
		Unit:     fault.UnitALU,
		Kind:     fault.CorruptBitFlip,
		BitPos:   3,
		BaseRate: 1e-9,
		Sens:     fault.Sensitivity{Volt: 12, Temp: 1.5},
	}
	if err := f.InjectDefect("m00008", 4, cold); err != nil {
		t.Fatal(err)
	}
	nominal := int64(0)
	for day := 0; day < 10; day++ {
		nominal += f.Step().Corruptions
	}
	pt := f.OperatingPoint()
	pt.VoltageV = 0.85
	pt.TempC = 90
	f.SetOperatingPoint(pt)
	corner := int64(0)
	for day := 0; day < 10; day++ {
		corner += f.Step().Corruptions
	}
	if corner <= nominal {
		t.Errorf("corner corruptions (%d) not above nominal (%d)", corner, nominal)
	}
}

// TestRepairedSiteStopsCorrupting is the regression test for the ghost
// corruption bug: a site whose silicon was replaced must not keep
// producing corruptions (it used to — the planning loop never skipped
// repaired sites).
func TestRepairedSiteStopsCorrupting(t *testing.T) {
	cfg := eventTestConfig()
	cfg.RepairAfterDays = 5
	cfg.Policy = quarantine.Policy{Mode: quarantine.CoreRemoval,
		RequireConfession: true, DeclineRetry: 2 * simtime.Day}
	f := newFleet(cfg, nil)
	if err := f.InjectDefect("m00009", 6, hotDefect(13)); err != nil {
		t.Fatal(err)
	}
	repairedOn := -1
	for day := 0; day < 40; day++ {
		st := f.Step()
		if st.RepairsDone > 0 {
			repairedOn = day
		}
	}
	if repairedOn < 0 {
		t.Fatal("hot defect was never convicted and repaired in 40 days")
	}
	tail := int64(0)
	for day := 0; day < 5; day++ {
		tail += f.Step().Corruptions
	}
	if tail != 0 {
		t.Errorf("repaired site still corrupting: %d corruptions after repair", tail)
	}
	sites := f.Defects()
	if len(sites) != 1 || !sites[0].Repaired {
		t.Errorf("site not marked repaired: %+v", sites)
	}
}

func TestWorkloadPhaseSwitches(t *testing.T) {
	f := newFleet(eventTestConfig(), nil)
	if err := f.StartKVLoad(KVDBConfig{Stores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.StartKVLoad(KVDBConfig{Stores: 2}); err == nil {
		t.Error("double kv start accepted")
	}
	if err := f.StartTaskRun(TaskRunConfig{Tasks: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.StartTaskRun(TaskRunConfig{Tasks: 2}); err == nil {
		t.Error("double taskrun start accepted")
	}
	st := f.Step()
	if st.KVReads == 0 {
		t.Error("kv phase produced no reads")
	}
	if st.TRGranules == 0 {
		t.Error("taskrun phase produced no granules")
	}
	f.StopKVLoad()
	f.StopTaskRun()
	st = f.Step()
	if st.KVReads != 0 || st.TRGranules != 0 {
		t.Errorf("stopped phases still active: %+v", st)
	}
}
