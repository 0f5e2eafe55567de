package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// traceOutcome is one traced fleet run: the ground-truth report computed
// from the live fleet, and the lifecycle trace serialized to JSONL.
type traceOutcome struct {
	report DetectionReport
	jsonl  string
}

func tracedRun(t *testing.T, parallelism, days int) traceOutcome {
	t.Helper()
	cfg := smallConfig()
	// A denser defect population plus the RMA loop makes the trace carry
	// release/repair events alongside live quarantines, so the ledger
	// replay in DetectionFromTrace is actually exercised.
	cfg.DefectsPerMachine = 0.2
	cfg.RepairAfterDays = 25
	tr := obs.NewTrace()
	r, err := fleet.NewRunner(cfg,
		fleet.WithParallelism(parallelism), fleet.WithTrace(tr))
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	r.Run(days)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return traceOutcome{report: Detection(r.Fleet(), days), jsonl: buf.String()}
}

// TestDetectionFromTraceMatchesGroundTruth is the acceptance check for the
// lifecycle trace: a detection report derived purely from the JSONL trace
// (written and re-read, so it also proves float64 activation times survive
// serialization) must reproduce Detection on the live fleet bit for bit —
// counts and every latency value — and the trace itself must be
// byte-identical across worker counts.
func TestDetectionFromTraceMatchesGroundTruth(t *testing.T) {
	const days = 45
	serial := tracedRun(t, 1, days)
	if serial.report.Quarantined == 0 {
		t.Fatal("serial run quarantined nothing; test would be vacuous")
	}
	if !strings.Contains(serial.jsonl, `"event":"release"`) {
		t.Fatal("trace contains no release events; ledger replay untested")
	}

	events, err := obs.ReadJSONL(strings.NewReader(serial.jsonl))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	got, err := DetectionFromTrace(events, days)
	if err != nil {
		t.Fatalf("DetectionFromTrace: %v", err)
	}
	if !reflect.DeepEqual(got, serial.report) {
		t.Errorf("trace-derived report diverged from ground truth\ntruth: %+v\ntrace: %+v",
			serial.report, got)
	}

	par := tracedRun(t, 4, days)
	if par.jsonl != serial.jsonl {
		t.Error("JSONL trace diverged between parallelism 1 and 4")
	}
	if !reflect.DeepEqual(par.report, serial.report) {
		t.Errorf("ground truth diverged between parallelism 1 and 4\nserial: %+v\npar:    %+v",
			serial.report, par.report)
	}
}

func TestDetectionFromTraceRejectsNonLifecycleTrace(t *testing.T) {
	if _, err := DetectionFromTrace(nil, 10); err == nil {
		t.Fatal("expected error for empty trace")
	}
	events := []obs.TraceEvent{{Event: obs.EventFirstSignal, Machine: "m00001", Core: 3}}
	if _, err := DetectionFromTrace(events, 10); err == nil {
		t.Fatal("expected error for trace without defect census")
	}
}
