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
// defect (confesses), a latent VEC defect (exonerated before onset), and
// an ALU defect that confesses and is classified. Any change to the fault
// model's decision sequence or RNG consumption shows up here. Run with
// -update to regenerate the goldens.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"vec-copy-lane-safe-tasks", []string{"-class", "vec-copy-lane", "-core", "5", "-cores", "16", "-mode", "safe-tasks"}},
		{"alu-low-freq-worse", []string{"-class", "alu-low-freq-worse"}},
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
