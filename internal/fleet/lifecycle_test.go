package fleet

import (
	"reflect"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/quarantine"
	"repro/internal/sched"
)

// lifecycleConfig is testConfig with the control plane on and a
// machine-drain policy so convictions exercise the whole ledger loop:
// suspect → cordoned → draining → drained → repairing → probation →
// healthy, with MaxRepairs=1 making second convictions removals.
func lifecycleConfig() Config {
	cfg := testConfig()
	cfg.Policy = quarantine.Policy{
		Mode:              quarantine.MachineDrain,
		RequireConfession: true,
	}
	cfg.RepairAfterDays = 5
	cfg.Lifecycle = LifecycleConfig{Enabled: true, MaxRepairs: 1, ProbationDays: 3}
	return cfg
}

func TestLifecycleLedgerFollowsConvictions(t *testing.T) {
	r := newTestRunner(t, lifecycleConfig())
	f := r.Fleet()
	var agg DayStats
	for _, d := range r.Run(120) {
		agg.NewQuarantines += d.NewQuarantines
		agg.LifeCordoned += d.LifeCordoned
		agg.LifeDrained += d.LifeDrained
		agg.LifeRemoved += d.LifeRemoved
		agg.LifeReintroduced += d.LifeReintroduced
	}
	if agg.NewQuarantines == 0 {
		t.Fatal("no quarantines; ledger loop unexercised")
	}
	if agg.LifeDrained == 0 || agg.LifeCordoned == 0 {
		t.Fatalf("ledger saw no drains: %+v", agg)
	}
	if agg.LifeReintroduced == 0 {
		t.Fatalf("no machine came back toward service: %+v", agg)
	}
	life := f.Lifecycle()
	if life == nil {
		t.Fatal("Lifecycle() nil with control plane enabled")
	}
	// Every convicted-and-repaired machine must have burned a repair
	// cycle; drained+removed machines must really be out of the pool.
	sawRepairCycle := false
	for _, rec := range life.List() {
		if rec.RepairCycles > 0 {
			sawRepairCycle = true
		}
		switch rec.State {
		case lifecycle.Removed:
			if !f.Cluster().Machine(rec.Machine).Drained() {
				t.Fatalf("removed machine %s is not drained in the cluster", rec.Machine)
			}
			for _, tk := range f.repairQueue {
				if tk.machine == rec.Machine {
					t.Fatalf("removed machine %s still has a repair ticket", rec.Machine)
				}
			}
		case lifecycle.Drained, lifecycle.Draining:
			if !f.Cluster().Machine(rec.Machine).Drained() {
				t.Fatalf("ledger says %s is %s but the machine serves work",
					rec.Machine, rec.State)
			}
		}
	}
	if !sawRepairCycle {
		t.Fatal("no machine completed a repair cycle in 120 days")
	}
}

// TestLifecycleRecidivistRemovedPermanently drives one machine through
// conviction → repair → relapse (a second injected defect) and checks
// the second cordon escalates to permanent removal: the machine stays
// drained and never gets another repair ticket. Repairs replace all
// defective silicon, so the relapse must be injected explicitly.
func TestLifecycleRecidivistRemovedPermanently(t *testing.T) {
	cfg := eventTestConfig()
	cfg.Policy = quarantine.Policy{
		Mode:              quarantine.MachineDrain,
		RequireConfession: true,
	}
	cfg.RepairAfterDays = 3
	cfg.Lifecycle = LifecycleConfig{Enabled: true, MaxRepairs: 1, ProbationDays: 2}
	r := newTestRunner(t, cfg)
	f := r.Fleet()
	const id = "m00007"
	if err := f.InjectDefect(id, 1, hotDefect(4)); err != nil {
		t.Fatal(err)
	}
	waitState := func(want lifecycle.State, maxDays int) {
		t.Helper()
		for i := 0; i < maxDays; i++ {
			if rec, _ := f.Lifecycle().State(id); rec.State == want {
				return
			}
			f.Step()
		}
		rec, _ := f.Lifecycle().State(id)
		t.Fatalf("machine never reached %s in %d days (is %s)", want, maxDays, rec.State)
	}
	waitState(lifecycle.Drained, 60)
	waitState(lifecycle.Healthy, 60) // repair + clean probation
	rec, _ := f.Lifecycle().State(id)
	if rec.RepairCycles != 1 {
		t.Fatalf("repair cycles after first loop = %d, want 1", rec.RepairCycles)
	}
	// Relapse: new silicon on the same chassis goes bad again.
	if err := f.InjectDefect(id, 2, hotDefect(6)); err != nil {
		t.Fatal(err)
	}
	waitState(lifecycle.Removed, 60)
	rec, _ = f.Lifecycle().State(id)
	if rec.LastReason == "" {
		t.Fatal("removal has no reason")
	}
	if !f.Cluster().Machine(id).Drained() {
		t.Fatal("removed machine not drained")
	}
	// Long after RepairAfterDays, the removal must hold: no ticket ever
	// resurrects the machine.
	r.Run(20)
	if rec, _ := f.Lifecycle().State(id); rec.State != lifecycle.Removed {
		t.Fatalf("removed machine resurrected to %s", rec.State)
	}
	if !f.Cluster().Machine(id).Drained() {
		t.Fatal("removed machine returned to service")
	}
}

// TestLifecycleDeterministicAcrossParallelism extends the bit-identical
// contract to the control plane: the day series (including Life*
// counters) and the final ledger must not depend on worker count.
func TestLifecycleDeterministicAcrossParallelism(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.Machines = 200
	const days = 60
	type outcome struct {
		series []DayStats
		ledger []lifecycle.Record
	}
	run := func(parallelism int) outcome {
		r, err := NewRunner(cfg, WithParallelism(parallelism))
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		series := r.Run(days)
		return outcome{series: series, ledger: r.Fleet().Lifecycle().List()}
	}
	serial := run(1)
	var drained int
	for _, d := range serial.series {
		drained += d.LifeDrained
	}
	if drained == 0 {
		t.Fatal("serial run drained nothing; determinism check would be weak")
	}
	got := run(4)
	for i := range serial.series {
		if !reflect.DeepEqual(serial.series[i], got.series[i]) {
			t.Fatalf("day %d diverged\nserial: %+v\npar4:   %+v",
				i, serial.series[i], got.series[i])
		}
	}
	if !reflect.DeepEqual(serial.ledger, got.ledger) {
		t.Fatalf("ledger diverged\nserial: %+v\npar4:   %+v", serial.ledger, got.ledger)
	}
}

func TestCordonReleaseEvents(t *testing.T) {
	cfg := lifecycleConfig()
	f := newFleet(cfg, nil)
	const id = "m00003"
	if err := f.CordonMachine(id); err != nil {
		t.Fatalf("CordonMachine: %v", err)
	}
	if rec, _ := f.Lifecycle().State(id); rec.State != lifecycle.Cordoned {
		t.Fatalf("ledger state after cordon = %s", rec.State)
	}
	// Cordoned machines accept no new placements.
	if _, err := f.Cluster().PlaceAt(&sched.Task{ID: "t1"}, sched.CoreRef{Machine: id, Core: 0}); err == nil {
		t.Fatal("placement on cordoned machine succeeded")
	}
	if err := f.CordonMachine(id); err != nil {
		t.Fatalf("re-cordon not idempotent: %v", err)
	}
	if err := f.ReleaseMachine(id); err != nil {
		t.Fatalf("ReleaseMachine: %v", err)
	}
	if rec, _ := f.Lifecycle().State(id); rec.State != lifecycle.Healthy {
		t.Fatalf("ledger state after release = %s", rec.State)
	}
	if _, err := f.Cluster().PlaceAt(&sched.Task{ID: "t2"}, sched.CoreRef{Machine: id, Core: 0}); err != nil {
		t.Fatalf("placement after release: %v", err)
	}
	if err := f.CordonMachine("m99999"); err == nil {
		t.Fatal("cordon of unknown machine succeeded")
	}

	// The verbs also work with the control plane off — pure sched effect.
	plain := newFleet(testConfig(), nil)
	if err := plain.CordonMachine(id); err != nil {
		t.Fatalf("cordon without lifecycle: %v", err)
	}
	if plain.Lifecycle() != nil {
		t.Fatal("Lifecycle() non-nil when disabled")
	}
	if err := plain.ReleaseMachine(id); err != nil {
		t.Fatalf("release without lifecycle: %v", err)
	}
}

func TestMaintenanceDrainUpdatesLedger(t *testing.T) {
	f := newFleet(lifecycleConfig(), nil)
	const id = "m00011"
	if err := f.DrainMachine(id); err != nil {
		t.Fatal(err)
	}
	if rec, _ := f.Lifecycle().State(id); rec.State != lifecycle.Drained {
		t.Fatalf("ledger after maintenance drain = %s", rec.State)
	}
	if err := f.UndrainMachine(id); err != nil {
		t.Fatal(err)
	}
	if rec, _ := f.Lifecycle().State(id); rec.State != lifecycle.Healthy {
		t.Fatalf("ledger after undrain = %s", rec.State)
	}
}
