package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives fleetsim through run and checks the exit codes README
// documents: 0 success, 1 a failed run or an invalid file, 2 a usage
// error. The retired forms (bare flags, the traced-run flags, and
// experiments -parallelism) are usage errors now.
func TestRun(t *testing.T) {
	unmet := filepath.Join(t.TempDir(), "unmet.yaml")
	if err := os.WriteFile(unmet, []byte(`name: unmet
days: 1
fleet:
  machines: 4
  cores_per_machine: 2
  defects_per_machine: 0
assert:
  corruptions: {min: 1}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	traced := t.TempDir()
	golden, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // stdout must contain it
	}{
		{"run", []string{"run", "../../scenarios/quickstart.yaml"}, 0, "assertions: all passed\n"},
		{"run traced", []string{"run", "-trace", filepath.Join(traced, "t.jsonl"), "-metrics", filepath.Join(traced, "m.prom"),
			"../../scenarios/quickstart.yaml"}, 0, "trace self-check: detection report derived from trace matches ground truth\n"},
		{"run traced with no defective core", []string{"run", "-trace", filepath.Join(traced, "pool.jsonl"),
			"../../scenarios/pool-drain-budget.yaml"}, 0, "trace self-check: detection report derived from trace matches ground truth\n"},
		{"run with an unmet assertion", []string{"run", unmet}, 1, ""},
		// Every assertable quantity is a series -metrics prints: a run-long
		// counter, an end-of-run report and a chaos harness tally.
		{"run -metrics lists life_retests", []string{"run", "-metrics", "-", "../../scenarios/remediation-escalating.yaml"}, 0,
			"\nlifecycle_retests_total 2\n"},
		{"run -metrics lists true_positive", []string{"run", "-metrics", "-", "../../scenarios/remediation-escalating.yaml"}, 0,
			"\ndetection_true_positives 0\n"},
		{"run -metrics lists notify_delivered", []string{"run", "-metrics", "-", "../../scenarios/chaos-network-notify.yaml"}, 0,
			"\nnotify_delivered 7\n"},
		{"validate the corpus", append([]string{"validate"}, glob(t, "../../scenarios/*.yaml")...), 0, "ok\t"},
		{"validate counts every assertion kind", []string{"validate",
			"../../scenarios/chaos-network-notify.yaml", "../../scenarios/chaos-wal-faults.yaml",
			"../../scenarios/lifecycle-cordon-drain.yaml", "../../scenarios/pool-drain-budget.yaml"}, 0,
			"ok\t../../scenarios/chaos-network-notify.yaml\t(chaos-network-notify: 7 days, 4 events, 8 assertions)\n" +
				"ok\t../../scenarios/chaos-wal-faults.yaml\t(chaos-wal-faults: 9 days, 10 events, 11 assertions)\n" +
				"ok\t../../scenarios/lifecycle-cordon-drain.yaml\t(lifecycle-cordon-drain: 60 days, 4 events, 14 assertions)\n" +
				"ok\t../../scenarios/pool-drain-budget.yaml\t(pool-drain-budget: 10 days, 3 events, 9 assertions)\n"},
		{"validate invalid files", append([]string{"validate"}, glob(t, "../../internal/scenario/testdata/invalid/*.yaml")...), 1, ""},
		{"validate nothing", []string{"validate"}, 2, ""},
		{"experiments", []string{"experiments", "-experiment", "E1"}, 0, section(t, string(golden), "E1 —")},
		{"chaos", []string{"chaos"}, 0, "" +
			"chaos: wal storm: 864 ops (446 acked) through 418 disk faults; replay matches acked prefix; broken-log refusal holds\n" +
			"chaos: pool storm: 48 drains (21 deferred) with floors intact; queue drained in 7 passes\n" +
			"chaos: net storm: 96/96 actions acked through 72 network faults, all durable across restart\n" +
			"chaos: webhook storm: 128 events delivered exactly once through 128 network faults\n" +
			"chaos: all invariants held\n"},
		{"unknown experiment", []string{"experiments", "-experiment", "E99"}, 2, ""},
		{"unknown command", []string{"bogus"}, 2, ""},
		{"no command", nil, 2, ""},
		{"bare flags", []string{"-experiment", "E1"}, 2, ""},
		{"experiments -trace", []string{"experiments", "-trace", "t.jsonl"}, 2, ""},
		{"experiments -parallelism", []string{"experiments", "-parallelism", "2"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout.String())
			}
		})
	}
}

func glob(t *testing.T, pattern string) []string {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob %s: %v %v", pattern, paths, err)
	}
	return paths
}

// section returns the block of experiments_output.txt whose table starts
// with title, with the rule above it and the blank line after it.
func section(t *testing.T, golden, title string) string {
	t.Helper()
	rule := strings.Repeat("=", 72) + "\n"
	for _, s := range strings.Split(golden, rule) {
		if strings.HasPrefix(s, title) {
			return rule + s
		}
	}
	t.Fatalf("experiments_output.txt has no %q section", title)
	return ""
}
