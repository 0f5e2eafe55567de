package fleet

// Tests for the remediation-policy plug point and capacity pools: the
// default policy must reproduce the fixed paper loop bit for bit at any
// parallelism, the non-default policies must actually spend retests and
// swaps, and no pool may ever be observed below its serving floor.

import (
	"reflect"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// lifeTotals is a run's pool/remediation accounting, read from the
// registry counters the fleet and the ledger keep.
type lifeTotals struct {
	deferred, admitted, retests, swaps, floorBreaches float64
}

func lifeTotalsOf(reg *obs.Registry) lifeTotals {
	return lifeTotals{
		deferred:      reg.Counter("lifecycle_drains_deferred_total").Value(),
		admitted:      reg.Counter("lifecycle_drains_admitted_total").Value(),
		retests:       reg.Counter("lifecycle_retests_total").Value(),
		swaps:         reg.Counter("lifecycle_swaps_total").Value(),
		floorBreaches: reg.Counter("lifecycle_pool_floor_breaches_total").Value(),
	}
}

// runOutcome captures everything the remediation layer can influence.
type runOutcome struct {
	series []DayStats
	ledger []lifecycle.Record
	totals lifeTotals
}

func runWith(t *testing.T, cfg Config, parallelism int, days int) runOutcome {
	t.Helper()
	reg := obs.NewRegistry()
	r, err := NewRunner(cfg, WithParallelism(parallelism), WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	series := r.Run(days)
	return runOutcome{
		series: series,
		ledger: r.Fleet().Lifecycle().List(),
		totals: lifeTotalsOf(reg),
	}
}

// TestDefaultPolicyBitIdentical: naming the default policy explicitly
// (with pools left off) must reproduce the unconfigured control plane's
// day series and ledger exactly, serial and parallel alike.
func TestDefaultPolicyBitIdentical(t *testing.T) {
	const days = 60
	base := lifecycleConfig()
	base.Machines = 200

	named := base
	named.Remediate = RemediateConfig{Policy: "default"}

	want := runWith(t, base, 1, days)
	var drained int
	for _, d := range want.series {
		drained += d.LifeDrained
	}
	if drained == 0 {
		t.Fatal("baseline drained nothing; the comparison would be vacuous")
	}
	for _, c := range []struct {
		name string
		cfg  Config
		par  int
	}{
		{"named default, serial", named, 1},
		{"named default, par4", named, 4},
		{"unconfigured, par4", base, 4},
	} {
		got := runWith(t, c.cfg, c.par, days)
		if !reflect.DeepEqual(got.series, want.series) {
			t.Fatalf("%s: day series diverged from baseline", c.name)
		}
		if !reflect.DeepEqual(got.ledger, want.ledger) {
			t.Fatalf("%s: ledger diverged\nbaseline: %+v\ngot:      %+v",
				c.name, want.ledger, got.ledger)
		}
	}
	if want.totals != (lifeTotals{}) {
		t.Fatalf("default policy without pools produced remediation totals %+v, want zero", want.totals)
	}
}

// TestEscalatingPolicySpendsRetests: with the threshold set above any
// achievable score, every conviction must be preceded by the configured
// retests — and the machines still drain in the end.
func TestEscalatingPolicySpendsRetests(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.Remediate = RemediateConfig{Policy: "escalating", ScoreThreshold: 1e9, MaxRetests: 2}
	out := runWith(t, cfg, 1, 120)
	var drained int
	for _, d := range out.series {
		drained += d.LifeDrained
	}
	if drained == 0 {
		t.Fatal("escalating policy never drained; defects unconvicted")
	}
	// The first conviction of any machine must have burned its full retest
	// budget before the drain went through.
	if out.totals.retests < 2 {
		t.Fatalf("retests = %v with %d drains; escalation never engaged", out.totals.retests, drained)
	}
	// Purity check: the same configuration at parallelism 4 lands on the
	// identical ledger.
	par := runWith(t, cfg, 4, 120)
	if !reflect.DeepEqual(out.ledger, par.ledger) {
		t.Fatal("escalating policy diverged across parallelism")
	}
	if out.totals != par.totals {
		t.Fatalf("totals diverged: serial %+v par %+v", out.totals, par.totals)
	}
}

// poolFloorNeverBreached asserts the tentpole invariant on a finished
// fleet: every pool's serving population sits at or above its floor.
func poolFloorNeverBreached(t *testing.T, f *Fleet, totals lifeTotals) {
	t.Helper()
	if n := totals.floorBreaches; n != 0 {
		t.Fatalf("observed %v pool×day floor breaches, want 0", n)
	}
	for _, p := range f.Lifecycle().Pools() {
		if p.Serving < p.Floor {
			t.Fatalf("pool %s finished below floor: %+v", p.Name, p)
		}
	}
}

// TestPoolFloorHoldsUnderConvictions: a tight pool floor forces deferrals
// instead of capacity loss, the floor is never breached, and parked drains
// admit as repaired machines return.
func TestPoolFloorHoldsUnderConvictions(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.Machines = 60
	cfg.DefectsPerMachine = 0.3 // enough convictions to fight over headroom
	cfg.RepairAfterDays = 3
	// Floor of 59/60 leaves headroom for exactly one machine out of
	// service: any overlapping convictions must queue.
	cfg.Lifecycle.Pools = []lifecycle.PoolConfig{
		{Name: "prod", MinHealthy: 0.97},
	}
	reg := obs.NewRegistry()
	r, err := NewRunner(cfg, WithParallelism(1), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	r.Run(150)
	f := r.Fleet()
	totals := lifeTotalsOf(reg)
	if totals.deferred == 0 {
		t.Fatalf("single-slot floor in a defect-dense pool deferred nothing: %+v", totals)
	}
	if totals.admitted == 0 {
		t.Fatalf("no deferred drain was ever admitted: %+v", totals)
	}
	poolFloorNeverBreached(t, f, totals)
	// The same run at parallelism 4 must agree on every pool decision.
	reg4 := obs.NewRegistry()
	r4, err := NewRunner(cfg, WithParallelism(4), WithMetrics(reg4))
	if err != nil {
		t.Fatal(err)
	}
	r4.Run(150)
	if got := lifeTotalsOf(reg4); got != totals {
		t.Fatalf("pool totals diverged: serial %+v par %+v", totals, got)
	}
	if !reflect.DeepEqual(f.Lifecycle().List(), r4.Fleet().Lifecycle().List()) {
		t.Fatal("pooled ledger diverged across parallelism")
	}
}

// TestSwapPolicySpendsSpares: with a one-ticket budget and repairs that
// outlast the run, the second concurrent conviction must swap in spare
// silicon instead of queueing for repair.
func TestSwapPolicySpendsSpares(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.Machines = 120
	cfg.DefectsPerMachine = 0.3
	cfg.RepairAfterDays = 60 // repairs outlast the run: tickets stay pinned
	cfg.Lifecycle.Pools = []lifecycle.PoolConfig{{Name: "prod"}}
	cfg.Remediate = RemediateConfig{Policy: "swap", RepairTicketsPerPool: 1}
	out := runWith(t, cfg, 1, 120)
	if out.totals.swaps == 0 {
		t.Fatalf("swap policy never swapped: %+v", out.totals)
	}
	par := runWith(t, cfg, 4, 120)
	if out.totals != par.totals || !reflect.DeepEqual(out.ledger, par.ledger) {
		t.Fatalf("swap run diverged across parallelism: %+v vs %+v", out.totals, par.totals)
	}
}
