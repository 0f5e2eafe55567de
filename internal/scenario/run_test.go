package scenario

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// eventHeavy is a scenario exercising every event kind — the determinism
// stress case: injections, drains, operating-point moves, and workload
// phase churn all fork the master RNG mid-run.
const eventHeavy = `
name: event-heavy
seed: 5
days: 25
fleet:
  machines: 60
  cores_per_machine: 8
  defects_per_machine: 0.05
  repair_after_days: 8
  policy:
    decline_retry_days: 4
  confession:
    passes: 20
    max_ops: 4000000
events:
  - day: 0
    inject_defect:
      machine: m00007
      core: 3
      unit: ALU
      kind: bitflip
      bit_pos: 11
      base_rate: 5.0e-7
  - day: 2
    start_kv_load:
      stores: 4
      reads_per_day: 32
  - day: 3
    inject_defect:
      machine: m00011
      core: 1
      class: vec-copy-lane
  - day: 4
    drain_machine:
      machine: m00002
  - day: 6
    start_taskrun:
      tasks: 3
  - day: 8
    set_operating_point:
      voltage_v: 0.9
      temp_c: 80
  - day: 10
    undrain_machine:
      machine: m00002
  - day: 14
    stop_kv_load: {}
  - day: 18
    stop_taskrun: {}
`

func runAt(t *testing.T, s *Scenario, par int) *Result {
	t.Helper()
	res, err := s.Run(Options{Parallelism: par})
	if err != nil {
		t.Fatalf("run (parallelism %d): %v", par, err)
	}
	return res
}

// TestDeterminismAcrossParallelism is the contract the scenario layer
// inherits and must preserve: identical file + seed → bit-identical
// daily stats, quarantine ledger, and metrics snapshot at any worker
// count, even with every event kind firing mid-run.
func TestDeterminismAcrossParallelism(t *testing.T) {
	s, err := Parse("event-heavy.yaml", []byte(eventHeavy))
	if err != nil {
		t.Fatal(err)
	}
	r1 := runAt(t, s, 1)
	r4 := runAt(t, s, 4)

	if !reflect.DeepEqual(r1.Days, r4.Days) {
		for i := range r1.Days {
			if !reflect.DeepEqual(r1.Days[i], r4.Days[i]) {
				t.Fatalf("day %d diverges:\n  p1: %+v\n  p4: %+v", i, r1.Days[i], r4.Days[i])
			}
		}
		t.Fatal("day series diverge")
	}
	if !reflect.DeepEqual(r1.Detection, r4.Detection) {
		t.Errorf("detection reports diverge:\n  p1: %+v\n  p4: %+v", r1.Detection, r4.Detection)
	}
	l1, l4 := ledgerString(r1), ledgerString(r4)
	if l1 != l4 {
		t.Errorf("quarantine ledgers diverge:\n  p1: %s\n  p4: %s", l1, l4)
	}
	s1, s4 := simSeries(r1), simSeries(r4)
	if !reflect.DeepEqual(s1, s4) {
		t.Errorf("metrics snapshots diverge (%d vs %d series)", len(s1), len(s4))
	}
}

// simSeries drops wall-clock timing series (*_seconds): they measure the
// host, not the simulation, and are the one legitimately nondeterministic
// part of the registry.
func simSeries(r *Result) []obs.SeriesSnapshot {
	out := make([]obs.SeriesSnapshot, 0, len(r.Snapshot))
	for _, s := range r.Snapshot {
		if strings.HasSuffix(s.Name, "_seconds") {
			continue
		}
		out = append(out, s)
	}
	return out
}

func ledgerString(r *Result) string {
	out := ""
	for _, rec := range r.Records {
		out += fmt.Sprintf("%s/%d@%v:%v;", rec.Ref.Machine, rec.Ref.Core, rec.When, rec.Confessed)
	}
	return out
}

// TestCorpusAssertions runs every shipped scenario and enforces its
// embedded assertions — the corpus is a regression suite, not
// documentation.
func TestCorpusAssertions(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(files) < 8 {
		t.Fatalf("scenario corpus too small: %d files (err %v)", len(files), err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, fail := range s.Check(res) {
				t.Error(fail)
			}
		})
	}
}
