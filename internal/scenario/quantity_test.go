package scenario

import (
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/fleet"
)

// sumDays is a reference for a counter quantity: one DayStats field summed
// over the run.
func sumDays[T int | int64](field func(fleet.DayStats) T) func(*Result) float64 {
	return func(r *Result) float64 {
		var sum T
		for _, d := range r.Days {
			sum += field(d)
		}
		return float64(sum)
	}
}

// aliasRefs computes every aliased quantity a second way, from the run's
// own ledgers rather than the registry: the daily series, or the
// lifecycle totals for the deferred-drain queue.
var aliasRefs = map[string]func(*Result) float64{
	"corruptions":       sumDays(func(d fleet.DayStats) int64 { return d.Corruptions }),
	"auto_reports":      sumDays(func(d fleet.DayStats) int { return d.AutoReports }),
	"user_reports":      sumDays(func(d fleet.DayStats) int { return d.UserReports }),
	"screen_detections": sumDays(func(d fleet.DayStats) int { return d.ScreenDetections }),
	"quarantined":       sumDays(func(d fleet.DayStats) int { return d.NewQuarantines }),
	"repairs":           sumDays(func(d fleet.DayStats) int { return d.RepairsDone }),
	"active_defects_end": func(r *Result) float64 {
		if len(r.Days) == 0 {
			return 0
		}
		return float64(r.Days[len(r.Days)-1].ActiveDefects)
	},
	"kv_reads":          sumDays(func(d fleet.DayStats) int { return d.KVReads }),
	"kv_retries":        sumDays(func(d fleet.DayStats) int { return d.KVRetries }),
	"kv_repairs":        sumDays(func(d fleet.DayStats) int { return d.KVRepairs }),
	"kv_degraded":       sumDays(func(d fleet.DayStats) int { return d.KVDegraded }),
	"kv_errors":         sumDays(func(d fleet.DayStats) int { return d.KVErrors }),
	"tr_granules":       sumDays(func(d fleet.DayStats) int { return d.TRGranules }),
	"tr_retries":        sumDays(func(d fleet.DayStats) int { return d.TRRetries }),
	"tr_migrations":     sumDays(func(d fleet.DayStats) int { return d.TRMigrations }),
	"tr_restores":       sumDays(func(d fleet.DayStats) int { return d.TRRestores }),
	"tr_signals":        sumDays(func(d fleet.DayStats) int { return d.TRSignals }),
	"tr_failures":       sumDays(func(d fleet.DayStats) int { return d.TRFailures }),
	"life_cordoned":     sumDays(func(d fleet.DayStats) int { return d.LifeCordoned }),
	"life_drained":      sumDays(func(d fleet.DayStats) int { return d.LifeDrained }),
	"life_removed":      sumDays(func(d fleet.DayStats) int { return d.LifeRemoved }),
	"life_reintroduced": sumDays(func(d fleet.DayStats) int { return d.LifeReintroduced }),
	"life_deferred":     func(r *Result) float64 { return float64(r.LifeTotals.Deferred) },
	"life_admitted":     func(r *Result) float64 { return float64(r.LifeTotals.Admitted) },
}

// zeroInFleet names the aliases no fleet run can move, with where their
// series is proven instead. A fleet store has one replica on defective
// silicon, so a read that fails there retries onto a healthy one and
// never reaches read repair or a no-majority serve.
var zeroInFleet = map[string]string{
	"kv_repairs":  "kvdb TestMitigationStatsReconcile",
	"kv_degraded": "kvdb TestMitigationStatsReconcile",
}

// failingTasks runs the batch and kv workloads on a fleet whose every
// core is deterministically defective: tasks exhaust their retries with
// nowhere healthy to migrate, and a single-replica store has no good copy
// to serve. From day 6 every machine is drained, so tasks fail without
// running a granule.
const failingTasks = `
name: failing-tasks
seed: 3
days: 8
fleet:
  machines: 3
  cores_per_machine: 1
  defects_per_machine: 0
events:
  - day: 0
    inject_defect: {machine: m00000, core: 0, unit: ALU, kind: bitflip, bit_pos: 5, deterministic: true}
  - day: 0
    inject_defect: {machine: m00001, core: 0, unit: ALU, kind: bitflip, bit_pos: 5, deterministic: true}
  - day: 0
    inject_defect: {machine: m00002, core: 0, unit: ALU, kind: bitflip, bit_pos: 5, deterministic: true}
  - day: 0
    start_taskrun:
      tasks: 2
  - day: 0
    start_kv_load:
      stores: 1
      replicas: 1
  - day: 6
    drain_machine: {machine: m00000}
  - day: 6
    drain_machine: {machine: m00001}
  - day: 6
    drain_machine: {machine: m00002}
`

// recidivistRemoval convicts the same machine twice under max_repairs: 1,
// so the second cordon escalates to permanent removal.
const recidivistRemoval = `
name: recidivist-removal
seed: 19
days: 40
fleet:
  machines: 40
  cores_per_machine: 4
  defects_per_machine: 0
  repair_after_days: 5
  lifecycle:
    enabled: true
    max_repairs: 1
    probation_days: 3
  policy:
    mode: machine-drain
    decline_retry_days: 3
  confession:
    passes: 30
    max_ops: 8000000
events:
  - day: 0
    inject_defect: {machine: m00002, core: 1, unit: ALU, kind: bitflip, bit_pos: 40, base_rate: 6.0e-7}
  - day: 15
    inject_defect: {machine: m00002, core: 1, unit: ALU, kind: stuckbit, bit_pos: 12, stuck_val: 1, base_rate: 6.0e-7}
`

// TestAliasesMatchLedgers is the differential oracle for the alias table:
// on every corpus scenario and three probes, at parallelism 1 and 4, each
// quantity read from registry series equals its reference computed from
// the run's ledgers, and each alias reads non-zero in some run — a series
// that never moves proves nothing about what it counts.
func TestAliasesMatchLedgers(t *testing.T) {
	for name := range aliases {
		if aliasRefs[name] == nil {
			t.Errorf("alias %s has no reference", name)
		}
	}
	for name := range aliasRefs {
		if aliases[name] == nil {
			t.Errorf("reference %s names no alias", name)
		}
	}
	var runs []*Scenario
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, s)
	}
	for _, src := range []string{eventHeavy, failingTasks, recidivistRemoval} {
		s, err := Parse("inline.yaml", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, s)
	}
	nonZero := map[string]bool{}
	for _, s := range runs {
		for _, par := range []int{1, 4} {
			res := runAt(t, s, par)
			for name, ref := range aliasRefs {
				got, want := res.Quantity(name), ref(res)
				if got != want {
					t.Errorf("%s at parallelism %d: %s = %v from the registry, %v from the ledgers",
						s.Name, par, name, got, want)
				}
				if got != 0 {
					nonZero[name] = true
				}
			}
		}
	}
	var never []string
	for name := range aliases {
		if !nonZero[name] && zeroInFleet[name] == "" {
			never = append(never, name)
		}
	}
	sort.Strings(never)
	for _, name := range never {
		t.Errorf("alias %s read zero in every run", name)
	}
}
