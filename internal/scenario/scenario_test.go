package scenario

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDecodeValidCorpus loads every shipped scenario: the corpus in
// scenarios/ doubles as the decoder's golden "valid" set.
func TestDecodeValidCorpus(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(files) < 8 {
		t.Fatalf("scenario corpus too small: %d files (err %v)", len(files), err)
	}
	for _, path := range files {
		s, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if s.Name == "" || s.Days <= 0 || s.Fleet.Machines <= 0 {
			t.Errorf("%s: incomplete scenario %+v", path, s)
		}
		if s.Assert.Count() == 0 {
			t.Errorf("%s: shipped scenarios must declare assertions", path)
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("%s: Compile: %v", path, err)
		}
	}
}

// TestDecodeInvalidGolden checks that schema violations produce the
// expected stable, line-numbered errors. Each testdata/invalid/X.yaml is
// paired with X.want holding one expected-error prefix per line.
func TestDecodeInvalidGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/invalid/*.yaml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no invalid testdata: %v", err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, perr := Parse(filepath.Base(path), data)
			if perr == nil {
				t.Fatalf("Parse accepted invalid input")
			}
			got := strings.Split(strings.TrimSpace(perr.Error()), "\n")
			requireSortedByLine(t, got)
			wantRaw, err := os.ReadFile(strings.TrimSuffix(path, ".yaml") + ".want")
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range strings.Split(strings.TrimSpace(string(wantRaw)), "\n") {
				found := false
				for _, g := range got {
					if strings.HasPrefix(g, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("missing expected error %q\ngot:\n  %s", want, strings.Join(got, "\n  "))
				}
			}
		})
	}
}

// requireSortedByLine fails unless every "file:line: msg" is on a line no
// earlier than the one before it.
func requireSortedByLine(t *testing.T, errs []string) {
	t.Helper()
	prev := 0
	for _, e := range errs {
		line, err := strconv.Atoi(strings.SplitN(e, ":", 3)[1])
		if err != nil || line < prev {
			t.Fatalf("errors not sorted by line:\n  %s", strings.Join(errs, "\n  "))
		}
		prev = line
	}
}

// TestErrorsSortedByLine pins the report order: a check that runs after
// the whole file decoded (the lifecycle prerequisites, line 3) still
// prints before a later line's error found while decoding (line 10).
func TestErrorsSortedByLine(t *testing.T) {
	src := `name: order
days: 3
fleet: {machines: 4, cores_per_machine: 2, lifecycle: {enabled: false, wal: true}}
assert:
  corruptions: 0
events:
  - day: 1
    drain_machine:
      machine: m00001
  - day: 9
    undrain_machine: {machine: m00001}
`
	_, err := Parse("o.yaml", []byte(src))
	want := "o.yaml:3: fleet.lifecycle options (wal, pools, policy, notify) require enabled: true\n" +
		"o.yaml:10: event.day 9 out of range [0, 3)"
	if err == nil || err.Error() != want {
		t.Fatalf("errors:\n%v\nwant:\n%s", err, want)
	}
}

// TestDecodeRoundTripValues spot-checks that decoded values land in the
// right fields with the right types.
func TestDecodeRoundTripValues(t *testing.T) {
	src := `
name: rt
seed: 99
days: 12
fleet:
  machines: 20
  cores_per_machine: 4
  defects_per_machine: 0
  repair_after_days: 7
  policy:
    mode: machine-drain
    decline_retry_days: 5
  confession:
    passes: 10
    max_ops: 1000000
events:
  - day: 0
    start_taskrun:
      tasks: 2
      granules_per_task: 5
  - day: 1
    inject_defect:
      machine: m00003
      core: 2
      unit: VEC
      kind: bitflip
      bit_pos: 13
      base_rate: 2.5e-7
      pattern_mask: 0xf0
      pattern_val: 0x50
  - day: 4
    set_operating_point:
      voltage_v: 0.9
assert:
  corruptions: {min: 1}
  quarantined_cores:
    - m00003/2
`
	s, err := Parse("rt.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed == nil || *s.Seed != 99 || s.Days != 12 {
		t.Errorf("header: %+v", s)
	}
	if s.Fleet.RepairAfterDays != 7 {
		t.Errorf("repair_after_days: %+v", s.Fleet.RepairAfterDays)
	}
	if s.Fleet.Policy == nil || s.Fleet.Policy.ModeName != "machine-drain" ||
		s.Fleet.Policy.DeclineRetryDays == nil || *s.Fleet.Policy.DeclineRetryDays != 5 {
		t.Errorf("policy: %+v", s.Fleet.Policy)
	}
	if len(s.Events) != 3 {
		t.Fatalf("events: %d", len(s.Events))
	}
	if tr := s.Events[0].TaskRun; tr == nil || tr.Tasks != 2 || tr.GranulesPerTask != 5 {
		t.Errorf("taskrun: %+v", tr)
	}
	in := s.Events[1].Inject
	if in == nil || in.Machine != "m00003" || in.Core != 2 ||
		in.PatternMask != 0xf0 || in.PatternVal != 0x50 ||
		in.BitPos == nil || *in.BitPos != 13 || in.BaseRate != 2.5e-7 {
		t.Errorf("inject: %+v", in)
	}
	pt := s.Events[2].Point
	if pt == nil || pt.VoltageV == nil || *pt.VoltageV != 0.9 || pt.FreqGHz != nil {
		t.Errorf("point: %+v", pt)
	}
	if len(s.Assert.Quantities) != 1 || len(s.Assert.QuarantinedCores) != 1 {
		t.Errorf("assert: %+v", s.Assert)
	}
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 99 || cfg.Machines != 20 || cfg.RepairAfterDays != 7 {
		t.Errorf("compiled: %+v", cfg)
	}
}

// TestDecodePoolsAndChaos round-trips the pools / remediation / chaos
// surface of the schema into the typed model and the compiled fleet
// config.
func TestDecodePoolsAndChaos(t *testing.T) {
	src := `
name: pc
days: 9
fleet:
  machines: 12
  cores_per_machine: 4
  defects_per_machine: 0
  lifecycle:
    enabled: true
    wal: true
    policy: swap
    repair_tickets_per_pool: 2
    notify: webhook
    pools:
      - name: web
        min_healthy: 0.75
      - name: db
        min_healthy_count: 3
events:
  - day: 2
    inject_wal_fault:
      kind: torn_write
  - day: 3
    inject_network_fault:
      kind: drop
      count: 2
assert:
  wal_faults: 1
  net_faults: 2
`
	s, err := Parse("pc.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	lc := s.Fleet.Lifecycle
	if lc == nil || !lc.Enabled || !lc.WAL || lc.Policy != "swap" || lc.Notify != "webhook" {
		t.Fatalf("lifecycle: %+v", lc)
	}
	if lc.RepairTicketsPerPool != 2 {
		t.Fatalf("repair tickets: %+v", lc.RepairTicketsPerPool)
	}
	if len(lc.Pools) != 2 || lc.Pools[0].Name != "web" || lc.Pools[1].Name != "db" {
		t.Fatalf("pools: %+v", lc.Pools)
	}
	if lc.Pools[0].MinHealthy != 0.75 {
		t.Fatalf("pool web: %+v", lc.Pools[0])
	}
	if lc.Pools[1].MinHealthyCount != 3 {
		t.Fatalf("pool db: %+v", lc.Pools[1])
	}
	if len(s.Events) != 2 {
		t.Fatalf("events: %+v", s.Events)
	}
	wf := s.Events[0].WALFault
	if s.Events[0].Kind != EvInjectWALFault || wf == nil || wf.Kind != "torn_write" || wf.Count != 1 {
		t.Fatalf("wal fault event: %+v %+v", s.Events[0], wf)
	}
	nf := s.Events[1].NetFault
	if s.Events[1].Kind != EvInjectNetFault || nf == nil || nf.Kind != "drop" || nf.Count != 2 {
		t.Fatalf("net fault event: %+v %+v", s.Events[1], nf)
	}
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Lifecycle.Pools) != 2 || cfg.Lifecycle.Pools[1].MinHealthyCount != 3 {
		t.Fatalf("compiled pools: %+v", cfg.Lifecycle.Pools)
	}
	if cfg.Remediate.Policy != "swap" || cfg.Remediate.RepairTicketsPerPool != 2 {
		t.Fatalf("compiled remediation: %+v", cfg.Remediate)
	}
}
