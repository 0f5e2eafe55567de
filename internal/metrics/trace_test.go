package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
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
	got := DetectionFromTrace(events, days)
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

// TestDetectionFromTraceCountsDefectFreeTrace replays the trace of a fleet
// with no defective core: the census is zero, and a quarantine (of a core
// noise nominated) counts as a false positive.
func TestDetectionFromTraceCountsDefectFreeTrace(t *testing.T) {
	if got := DetectionFromTrace(nil, 10); !reflect.DeepEqual(got, DetectionReport{}) {
		t.Fatalf("empty trace: %+v, want the zero report", got)
	}
	events := []obs.TraceEvent{
		{Event: obs.EventFirstSignal, Machine: "m00001", Core: 3},
		{Day: 4, Event: obs.EventQuarantine, Machine: "m00001", Core: 3},
	}
	want := DetectionReport{Quarantined: 1, FalsePositive: 1}
	if got := DetectionFromTrace(events, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("defect-free trace: %+v, want %+v", got, want)
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace reader and on to the
// detection replay. Malformed input must come back as an error, never a
// panic. A stream the reader accepts must be well-formed JSON, must
// survive WriteJSONL and a second read unchanged, and must replay to a
// report whose counts agree with each other. The checked-in corpus seeds
// it with a short real fleet trace (testdata/fuzz/FuzzReadTrace).
func FuzzReadTrace(f *testing.F) {
	for _, s := range []string{
		"",
		`{"day":3,"time_sec":259200,"machine":"m1","core":2,"event":"quarantine","mode":"core-removal"}` + "\n",
		`{"day":0,"time_sec":0,"machine":"m1","core":2,"event":"defect-present","first_active_sec":86400}` + "\n",
		`{"day":"x"}`,
		`{"day":1,"machine":"m1"`,
		`{"core":1e400}`,
		"[]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if events != nil {
				t.Fatalf("ReadJSONL returned %d events with error %v", len(events), err)
			}
			return
		}
		for dec := json.NewDecoder(bytes.NewReader(data)); ; {
			var raw json.RawMessage
			if err := dec.Decode(&raw); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatalf("ReadJSONL accepted input that is not a JSON stream: %v", err)
			}
		}
		tr := obs.NewTrace()
		for _, ev := range events {
			tr.Emit(ev)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		back, err := obs.ReadJSONL(&buf)
		if err != nil || !reflect.DeepEqual(back, events) {
			t.Fatalf("trace did not round-trip: err %v\nread    %+v\nreread  %+v", err, events, back)
		}
		rep := DetectionFromTrace(events, 30)
		if rep.TruePositive+rep.FalsePositive != rep.Quarantined || len(rep.LatencyDays) != rep.TruePositive ||
			rep.PastOnset > rep.TotalDefective {
			t.Fatalf("inconsistent report %+v", rep)
		}
		for _, l := range rep.LatencyDays {
			if !(l >= 0) {
				t.Fatalf("latency %v in %+v", l, rep)
			}
		}
	})
}
