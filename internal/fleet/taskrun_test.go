package fleet

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// startTestTaskRun starts the taskrun workload on f: tasks per day, two
// granules each, which keeps the corpus cost of 8 simulated days on the
// kvTestConfig fleet manageable while still exercising multi-granule
// checkpointing.
func startTestTaskRun(t *testing.T, f *Fleet, tasks int) {
	t.Helper()
	if err := f.StartTaskRun(TaskRunConfig{Tasks: tasks, GranulesPerTask: 2}); err != nil {
		t.Fatal(err)
	}
}

// injectDeterministic gives the first n defect sites an always-on ALU
// defect. The catalog's sampled defects fire at ~1e-8..1e-6 per op —
// realistic, but a few-thousand-op granule would essentially never trip
// one in an 8-day test. Tasks pin onto defect sites, so deterministic
// silicon guarantees the checkpoint/retry path runs. Identical injection
// on every compared fleet keeps determinism comparisons valid. A core's
// defects are fixed at fault.NewCore, so each site is rebuilt with the
// extra defect and swapped in wherever the fleet holds it.
func injectDeterministic(f *Fleet, n int) {
	d := fault.Defect{ID: "inject-alu", Unit: fault.UnitALU,
		Deterministic: true, Kind: fault.CorruptBitFlip, BitPos: 5}
	for i := 0; i < n && i < len(f.defects); i++ {
		site := f.defects[i]
		old := site.Site
		core := fault.NewCore(old.ID, xrand.New(uint64(i)), append(old.Defects, d)...)
		core.Point, core.Age = old.Point, old.Age
		site.Site = core
		f.siteMachines[i].Defective[site.Core] = core
	}
}

func TestTaskRunPhaseDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) []DayStats {
		r, err := NewRunner(kvTestConfig(), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		startTestTaskRun(t, r.Fleet(), 3)
		injectDeterministic(r.Fleet(), 3)
		return r.Run(8)
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("taskrun-enabled run diverges across parallelism:\n serial   %+v\n parallel %+v",
			serial, parallel)
	}
	var granules, migrations, restores, failures int
	for _, d := range serial {
		granules += d.TRGranules
		migrations += d.TRMigrations
		restores += d.TRRestores
		failures += d.TRFailures
	}
	if failures != 0 {
		t.Fatalf("%d tasks exhausted retries on a 960-core fleet", failures)
	}
	if want := 3 * 2 * 8; granules != want {
		t.Fatalf("TRGranules = %d, want %d (tasks x granules x days)", granules, want)
	}
	// Tasks pinned onto deterministic defect sites must restore at least
	// one checkpoint and migrate off the bad silicon.
	if restores == 0 || migrations == 0 {
		t.Fatalf("defect-pinned workload saw restores=%d migrations=%d, want both > 0",
			restores, migrations)
	}
}

func TestTaskRunDisabledForksNothing(t *testing.T) {
	// The phase must be invisible until StartTaskRun: identical seeds
	// produce identical telemetry, and the TR counters stay zero.
	a := newTestRunner(t, kvTestConfig()).Run(5)
	b := newTestRunner(t, kvTestConfig()).Run(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("baseline run not reproducible")
	}
	for _, d := range a {
		if d.TRGranules != 0 || d.TRRetries != 0 || d.TRMigrations != 0 ||
			d.TRRestores != 0 || d.TRSignals != 0 || d.TRFailures != 0 {
			t.Fatalf("taskrun counters nonzero with the phase disabled: %+v", d)
		}
	}
}

// TestTaskRunPhaseFeedsQuarantine checks escalation reaches the report
// path at the default divergence threshold of 2: one task per defect
// site, plus four that come back to the four deterministic sites, fail
// twice on each of them and emit suspect signals.
func TestTaskRunPhaseFeedsQuarantine(t *testing.T) {
	f := newFleet(kvTestConfig(), nil)
	startTestTaskRun(t, f, len(f.defects)+4)
	injectDeterministic(f, 4)
	var signals, reports int
	for d := 0; d < 5; d++ {
		st := f.Step()
		signals += st.TRSignals
		reports += st.AutoReports
	}
	if signals == 0 {
		t.Fatal("no taskrun escalations in 5 days of deterministic failures")
	}
	if reports < signals {
		t.Fatalf("AutoReports %d < TRSignals %d: escalations not merged into the report path",
			reports, signals)
	}
}
