package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestRunGolden pins mercury's full stdout for seeded runs that drive
// Confess and Screen on a defective core end to end: the default crypto
// defect (confesses), a latent VEC defect (exonerated before onset), an
// ALU defect that confesses and is classified, and the default defect
// drawn from another seed. Any change to the fault model's decision
// sequence or RNG consumption shows up here. Run with -update to
// regenerate the goldens.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"vec-copy-lane-safe-tasks", []string{"-class", "vec-copy-lane", "-core", "5", "-cores", "16", "-mode", "safe-tasks"}},
		{"alu-low-freq-worse", []string{"-class", "alu-low-freq-worse"}},
		{"seed-7", []string{"-seed", "7"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, want 0\nstderr:\n%s", code, stderr.String())
			}
			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("stdout differs from %s (rerun with -update if the change is intended):\ngot:\n%s\nwant:\n%s",
					path, stdout.String(), want)
			}
		})
	}
}

func TestRunUnknownMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !bytes.Contains(stderr.Bytes(), []byte(`unknown mode "bogus"`)) {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// TestRunBadMachine pins the machine-shape checks: each bad flag exits 2
// before any narration, naming the flag on stderr.
func TestRunBadMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown-class", []string{"-class", "bogus"}, `-class "bogus": unknown defect class (known: alu-stuck-bit, `},
		{"core-out-of-range", []string{"-core", "8", "-cores", "8"}, "-core 8: outside [0, 8)"},
		{"no-cores", []string{"-cores", "0"}, "-cores 0:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 || !bytes.Contains(stderr.Bytes(), []byte(tc.want)) {
				t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
			}
		})
	}
}
