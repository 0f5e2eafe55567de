package fleet

import (
	"reflect"
	"runtime"
	"testing"
)

// TestRunnerDeterministicAcrossParallelism is the tentpole's core
// guarantee: the whole daily telemetry series and the triage ledger are
// bit-identical whether a day is simulated serially or sharded across
// workers.
func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	cfg := testConfig()
	cfg.Machines = 200
	const days = 40
	type outcome struct {
		series []DayStats
		triage TriageStats
	}
	run := func(parallelism int) outcome {
		r, err := NewRunner(cfg, WithParallelism(parallelism))
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		return outcome{series: r.Run(days), triage: r.Fleet().Triage}
	}
	serial := run(1)
	var quarantines int
	for _, d := range serial.series {
		quarantines += d.NewQuarantines
	}
	if quarantines == 0 {
		t.Fatal("serial run quarantined nothing; determinism check would be weak")
	}
	for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(p)
		for i := range serial.series {
			if !reflect.DeepEqual(serial.series[i], got.series[i]) {
				t.Fatalf("parallelism %d: day %d diverged\nserial: %+v\ngot:    %+v",
					p, i, serial.series[i], got.series[i])
			}
		}
		if serial.triage != got.triage {
			t.Fatalf("parallelism %d: triage diverged: %+v vs %+v", p, serial.triage, got.triage)
		}
	}
}

func TestRunnerOptionValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := NewRunner(cfg, WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if _, err := NewRunner(cfg, WithObserver(nil)); err == nil {
		t.Fatal("nil observer accepted")
	}
	bad := cfg
	bad.Machines = 0
	if _, err := NewRunner(bad); err == nil {
		t.Fatal("zero machines accepted")
	}
}

func TestRunnerObserverSeesEveryDay(t *testing.T) {
	cfg := testConfig()
	cfg.Machines = 50
	var days []int
	r, err := NewRunner(cfg, WithObserver(func(d DayStats) { days = append(days, d.Day) }))
	if err != nil {
		t.Fatal(err)
	}
	r.Run(5)
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(days, want) {
		t.Fatalf("observer saw %v, want %v", days, want)
	}
}

func TestRunnerParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	cfg := testConfig()
	cfg.Machines = 10
	if got := newTestRunner(t, cfg).fleet.parallelism; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default parallelism = %d, want GOMAXPROCS", got)
	}
	r, err := NewRunner(cfg, WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.fleet.parallelism; got != 3 {
		t.Fatalf("parallelism = %d, want 3", got)
	}
}

// newTestRunner builds a runner for cfg at the default parallelism.
func newTestRunner(t testing.TB, cfg Config) *Runner {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
