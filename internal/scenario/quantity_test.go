package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite testdata/quantities.golden from the current runs")

// quantitiesGolden pins every assertable quantity of every run in
// TestAliasesMatchLedgers, one "scenario quantity value" line each.
const quantitiesGolden = "testdata/quantities.golden"

// quantityLines renders every assertable quantity of one run.
func quantityLines(s *Scenario, res *Result) string {
	var b strings.Builder
	for _, name := range QuantityNames() {
		fmt.Fprintf(&b, "%s %s %s\n", s.Name, name, strconv.FormatFloat(res.Quantity(name), 'g', -1, 64))
	}
	return b.String()
}

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

// aliasRefs computes aliased quantities a second way, from the run's own
// ledgers rather than the registry: the daily series, the detection
// report, or the fleet's triage ledger.
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
	"defective":         func(r *Result) float64 { return float64(r.Detection.TotalDefective) },
	"past_onset":        func(r *Result) float64 { return float64(r.Detection.PastOnset) },
	"true_positive":     func(r *Result) float64 { return float64(r.Detection.TruePositive) },
	"false_positive":    func(r *Result) float64 { return float64(r.Detection.FalsePositive) },
	"detected_fraction": func(r *Result) float64 { return r.Detection.DetectedFraction() },
	"mean_latency_days": func(r *Result) float64 { return r.Detection.MeanLatencyDays() },
	"investigated":      func(r *Result) float64 { return float64(r.Fleet.Triage.Investigated) },
	"triage_confirmed":  func(r *Result) float64 { return float64(r.Fleet.Triage.Confirmed) },
	"false_accusations": func(r *Result) float64 { return float64(r.Fleet.Triage.FalseAccusations) },
	"real_not_reproduced": func(r *Result) float64 {
		return float64(r.Fleet.Triage.RealNotReproduced)
	},
}

// goldenOnly names the aliases no ledger outside the registry counts:
// quantities.golden is their only reference.
var goldenOnly = map[string]bool{
	"life_deferred": true, "life_admitted": true,
	"life_retests": true, "life_swaps": true,
	"pool_floor_breaches": true, "wal_error_days": true,
	"wal_faults": true, "net_faults": true,
	"notify_delivered": true, "notify_failed": true, "notify_dropped": true,
}

// zeroInFleet names the aliases no run here moves, with why and where
// their counting is proven instead. A fleet store has one replica on
// defective silicon, so a read that fails there retries onto a healthy
// one and never reaches read repair or a no-majority serve.
var zeroInFleet = map[string]string{
	"kv_repairs":  "kvdb TestMitigationStatsReconcile",
	"kv_degraded": "kvdb TestMitigationStatsReconcile",
	// No run here isolates a healthy core.
	"false_positive": "metrics TestDetectionFromTraceCountsDefectFreeTrace",
	// The webhook retries every injected fault through, and the async
	// queue is never full at a scenario's notification rate.
	"notify_failed":  "remediate TestWebhookExhaustsRetries",
	"notify_dropped": "remediate TestAsyncDeliversAndDrops",
	// The deferred-drain queue exists to hold this at zero.
	"pool_floor_breaches": "fleet TestPoolFloorHoldsUnderConvictions",
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
// that never moves proves nothing about what it counts. Every quantity of
// every run also matches testdata/quantities.golden at both parallelisms.
func TestAliasesMatchLedgers(t *testing.T) {
	for name := range aliases {
		if (aliasRefs[name] == nil) == !goldenOnly[name] {
			t.Errorf("alias %s needs exactly one of a ledger reference and a goldenOnly entry", name)
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
	lines := map[int]*strings.Builder{1: {}, 4: {}}
	for _, s := range runs {
		for _, par := range []int{1, 4} {
			res := runAt(t, s, par)
			lines[par].WriteString(quantityLines(s, res))
			for name := range aliases {
				got := res.Quantity(name)
				if got != 0 {
					nonZero[name] = true
				}
				if ref := aliasRefs[name]; ref != nil && got != ref(res) {
					t.Errorf("%s at parallelism %d: %s = %v from the registry, %v from the ledgers",
						s.Name, par, name, got, ref(res))
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(quantitiesGolden, []byte(lines[1].String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(quantitiesGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		if got := lines[par].String(); got != string(golden) {
			t.Errorf("quantities at parallelism %d differ from %s (rerun with -update if the change is meant):\n%s",
				par, quantitiesGolden, firstDiff(got, string(golden)))
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

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}
