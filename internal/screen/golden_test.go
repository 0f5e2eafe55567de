package screen

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/confess.golden from the current screens")

// confessLine screens core under the fleet's confession config, capped at
// maxOps, and renders the report and the core's ground-truth counters as
// one line.
func confessLine(name string, core *fault.Core, maxOps uint64, rng *xrand.RNG) string {
	cfg := NewConfig(WithPasses(60), WithSweep(2, 1, 2), WithMaxOps(maxOps))
	rep := Screen(core, cfg, rng)
	var b strings.Builder
	fmt.Fprintf(&b, "%s detected=%v ops=%d first=%d passes=%d dets=[", name,
		rep.Detected, rep.OpsUsed, rep.OpsToFirstDetection, rep.PassesRun)
	for i, d := range rep.Detections {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%d", d.Result.Workload, d.Pass)
	}
	fmt.Fprintf(&b, "] ops=%v corrupt=%v", core.OpCount, core.CorruptCount)
	return b.String()
}

// TestConfessionGolden pins the counted work of confession screens: one
// screen per catalog class (sampled at a fixed seed, onset 0) and one of a
// healthy core. Every op count, corruption count and detection must stay
// byte-identical across any change that claims to be bit-identical, such
// as a native path for unarmed units.
func TestConfessionGolden(t *testing.T) {
	const maxOps = 2_000_000
	var lines []string
	for i, spec := range fault.Catalog {
		rng := xrand.New(uint64(700 + i))
		d := spec.Sample("d-"+spec.Name, rng)
		d.Onset = 0
		core := fault.NewCore("c-"+spec.Name, rng, d)
		lines = append(lines, confessLine(spec.Name, core, maxOps, rng.Fork(1)))
	}
	healthy := fault.NewCore("c-healthy", xrand.New(799))
	lines = append(lines, confessLine("healthy", healthy, maxOps, xrand.New(800)))
	got := strings.Join(lines, "\n") + "\n"

	const path = "testdata/confess.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("confession screens moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
