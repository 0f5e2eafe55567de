package metrics

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fleet"
	"repro/internal/screen"
)

func smallConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Machines = 400
	cfg.CoresPerMachine = 16
	cfg.DefectsPerMachine = 0.05
	cfg.Seed = 7
	cfg.ConfessionConfig = screen.NewConfig(screen.WithPasses(30),
		screen.WithSweep(2, 1, 2), screen.WithMaxOps(8_000_000))
	return cfg
}

// TestDetectionDeterministicAcrossParallelism is the regression guard for
// the parallel fleet: the same Config.Seed must yield an identical
// DetectionReport and an identical quarantine ledger — including isolation
// order — whether the simulation runs serial or sharded.
func TestDetectionDeterministicAcrossParallelism(t *testing.T) {
	const days = 45
	type outcome struct {
		report DetectionReport
		ledger []string
	}
	run := func(parallelism int) outcome {
		r, err := fleet.NewRunner(smallConfig(), fleet.WithParallelism(parallelism))
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.Run(days)
		var refs []string
		for _, rec := range r.Fleet().Manager().Records() {
			refs = append(refs, rec.Ref.String())
		}
		return outcome{report: Detection(r.Fleet(), days), ledger: refs}
	}
	serial := run(1)
	if serial.report.Quarantined == 0 {
		t.Fatal("serial run quarantined nothing; test would be vacuous")
	}
	for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(p)
		if !reflect.DeepEqual(serial.report, got.report) {
			t.Errorf("parallelism %d: DetectionReport diverged\nserial: %+v\ngot:    %+v",
				p, serial.report, got.report)
		}
		if !reflect.DeepEqual(serial.ledger, got.ledger) {
			t.Errorf("parallelism %d: quarantine ledger order diverged\nserial: %v\ngot:    %v",
				p, serial.ledger, got.ledger)
		}
	}
}

func TestDetectionReport(t *testing.T) {
	r, err := fleet.NewRunner(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	const days = 45
	r.Run(days)
	f := r.Fleet()
	rep := Detection(f, days)
	if rep.TotalDefective != len(f.Defects()) {
		t.Fatalf("total = %d, want %d", rep.TotalDefective, len(f.Defects()))
	}
	if rep.PastOnset > rep.TotalDefective || rep.PastOnset == 0 {
		t.Fatalf("past onset = %d of %d", rep.PastOnset, rep.TotalDefective)
	}
	if rep.TruePositive+rep.FalsePositive != rep.Quarantined {
		t.Fatalf("report inconsistent: %+v", rep)
	}
	if rep.Quarantined == 0 {
		t.Fatal("nothing quarantined; detection pipeline inert")
	}
	if f := rep.DetectedFraction(); f < 0 || f > 1 {
		t.Fatalf("detected fraction = %v", f)
	}
	for _, l := range rep.LatencyDays {
		if l < 0 || l > days {
			t.Fatalf("latency %v out of range", l)
		}
	}
	if len(rep.LatencyDays) != rep.TruePositive {
		t.Fatalf("latencies %d != TP %d", len(rep.LatencyDays), rep.TruePositive)
	}
	if rep.MeanLatencyDays() < 0 {
		t.Fatal("negative mean latency")
	}
}

func TestDetectedFractionEmpty(t *testing.T) {
	if (DetectionReport{}).DetectedFraction() != 0 {
		t.Fatal("empty report fraction should be 0")
	}
	if (DetectionReport{}).MeanLatencyDays() != 0 {
		t.Fatal("empty report latency should be 0")
	}
}

func TestCoverageCurveMonotoneTrend(t *testing.T) {
	// E12: more corpus coverage should never dramatically reduce the
	// detected fraction; typically it rises.
	cfg := smallConfig()
	cfg.Machines = 300
	pts, err := CoverageCurve(cfg, []int{1, 13}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Workloads != 1 || pts[1].Workloads != 13 {
		t.Fatalf("workload labels wrong: %+v", pts)
	}
	if pts[1].DetectedFraction < pts[0].DetectedFraction {
		t.Fatalf("full corpus (%v) detected less than single workload (%v)",
			pts[1].DetectedFraction, pts[0].DetectedFraction)
	}
}
