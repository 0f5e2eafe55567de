package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/bench/calib"
)

// lastJSON parses the last line of a run's stdout, the driver's contract.
func lastJSON(t *testing.T, stdout string) output {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var out output
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
	}
	return out
}

// Every workload, untraced and traced, in the quick size: the whole
// harness builds, runs, passes its own correctness gates and prints what
// the catalogue promises.
func TestQuickRunsEveryWorkload(t *testing.T) {
	for _, spec := range workloads {
		for _, traced := range []string{"0", "1"} {
			spec, traced := spec, traced
			t.Run(spec.Name+"/trace"+traced, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				start := time.Now()
				code := run([]string{"--workload", spec.Name, "--seed", "11", "--seconds", "10",
					"--trace", traced, "-quick", "-out", dir}, &stdout, &stderr)
				took := time.Since(start)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				t.Logf("quick run took %v", took)
				out := lastJSON(t, stdout.String())
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				specs := endToEnd
				if traced == "1" {
					specs = perLayer
				}
				if len(out.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, the catalogue lists %d", len(out.Metrics), len(specs))
				}
				nonZero := 0
				for _, m := range specs {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if got.Value != 0 {
						nonZero++
					}
					if traced == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
					}
				}
				if nonZero < 3 {
					t.Errorf("only %d metrics are non-zero", nonZero)
				}
				if traced == "1" {
					checkTraceFile(t, filepath.Join(dir, "trace-"+spec.Name+".jsonl"))
					if out.Metrics["obs.trace_overhead_ratio"].Value <= 0 {
						t.Errorf("obs.trace_overhead_ratio missing from the traced run")
					}
				}
				if left, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(left) > 0 {
					t.Errorf("WAL files left behind: %v", left)
				}
			})
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("traced run wrote no trace: %v", err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%s line %d: %v", path, n+1, err)
		}
		if sp.Name == "" || sp.ID == 0 || sp.End < sp.Start {
			t.Fatalf("%s line %d: malformed span %+v", path, n+1, sp)
		}
		n++
	}
	if n == 0 {
		t.Errorf("%s holds no spans", path)
	}
}

// BENCHMARK.json is the contract the driver reads; the catalogue is what
// the harness prints. They must say the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if strings.Join(file.Command, " ") != "bash bench/run.sh" || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the catalogue", len(file.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, catalogue %q", i, file.Workloads[i], w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("file lists %d+%d metrics, catalogue %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range endToEnd {
		unique(m.Name)
		f := file.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %d: file %+v, catalogue %+v", i, f, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unit.MatchString(m.Unit) {
			t.Errorf("%s: bound %v unit %q", m.Name, m.Bound, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s [s, lower] is required")
	}
	for i, m := range perLayer {
		unique(m.Name)
		f := file.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per-layer %d: file %+v, catalogue %+v", i, f, m)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Doc == "" {
			t.Errorf("%s: unit %q better %q doc %q", m.Name, m.Unit, m.Better, m.Doc)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
}

// The recorded 1k-machine cell of BENCH_fleetsim.json timed an empty loop:
// one defect site that never activated. The harness must refuse to
// measure such a fleet.
func TestThousandMachineDefaultConfigIsRejectedAsDegenerate(t *testing.T) {
	_, days, _, err := simPass(calib.New(), 1000, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	err = checkNonDegenerate(days, simFull.minActive)
	if err == nil || !strings.Contains(err.Error(), "degenerate") {
		t.Fatalf("1k-machine DefaultConfig accepted: %v", err)
	}
	t.Log(err)
}

// bench/ may only use surfaces that survive the ROADMAP deletion pass.
func TestHarnessAvoidsRetiredSurfaces(t *testing.T) {
	retired := map[string]*regexp.Regexp{
		"fleet.New (use fleet.NewRunner)":           regexp.MustCompile(`\bfleet\.New\(`),
		"Fleet.Run (use Runner.Step)":               regexp.MustCompile(`\.Fleet\(\)\.(Run|Step)\(`),
		"fleet.SetDefaultParallelism":               regexp.MustCompile(`SetDefaultParallelism`),
		"TolerantConfig.SingleLock":                 regexp.MustCompile(`SingleLock`),
		"forceRealConfessions":                      regexp.MustCompile(`forceRealConfessions`),
		"the fleetsim command and its flag pile":    regexp.MustCompile(`repro/cmd/`),
		"screen.Config literal (use NewConfig)":     regexp.MustCompile(`screen\.Config\{`),
		"the per-package bench recorders of PR 7/9": regexp.MustCompile(`BENCH_(fleetsim|kvdb)`),
	}
	var files []string
	for _, pattern := range []string{"*.go", "*/*.go"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 5 {
		t.Fatalf("found only %v", files)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for what, re := range retired {
			if loc := re.FindIndex(src); loc != nil {
				t.Errorf("%s uses %s", path, what)
			}
		}
	}
}

func TestCommittedValueCheck(t *testing.T) {
	good := kvValue("row12", 3, 456)
	if len(good) != kvValueBytes || !kvCommitted("row12", good) {
		t.Fatalf("a freshly built value is rejected: %q", good)
	}
	if kvCommitted("row1", good) || kvCommitted("row123", good) {
		t.Error("value accepted for another key")
	}
	// What the stuck bit does: bit 3 of a padding byte cleared.
	bad := append([]byte(nil), good...)
	bad[40] &^= 1 << 3
	if kvCommitted("row12", bad) {
		t.Error("corrupt padding accepted")
	}
	bad = append([]byte(nil), good...)
	bad[7] = 'x' // inside "3.456"
	if kvCommitted("row12", bad) {
		t.Error("corrupt version accepted")
	}
	if kvCommitted("row12", good[:kvValueBytes-1]) || kvCommitted("row12", nil) {
		t.Error("short value accepted")
	}
}

// A run with a failed operation prints no metrics and exits non-zero.
func TestFailedRunPrintsNoMetrics(t *testing.T) {
	spec := workloadSpec{Name: "fake", run: func(env) (*result, error) {
		res := newResult()
		res.attempted, res.failed = 10, 1
		for _, m := range endToEnd {
			res.set(m.Name, 1)
		}
		return res, nil
	}}
	var stdout bytes.Buffer
	if err := runOne(&stdout, spec, env{}, true); err == nil || stdout.Len() != 0 {
		t.Fatalf("err %v, stdout %q", err, stdout.String())
	}
	// And one that forgets an end-to-end metric is a harness bug.
	spec.run = func(env) (*result, error) {
		res := newResult()
		res.attempted = 10
		res.set("setup_s", 1)
		return res, nil
	}
	if err := runOne(&stdout, spec, env{}, true); err == nil || !strings.Contains(err.Error(), "was not measured") {
		t.Fatalf("missing metric not reported: %v", err)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-out", t.TempDir()), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (%s)", args, code, stderr.String())
		}
	}
}

// A slice's rate is that of its median block: one stalled block moves the
// wall-clock rate of the slice and not the bounded one.
func TestSliceRateIsTheMedianBlock(t *testing.T) {
	m := calib.New()
	start := time.Now()
	m.SampleN(5)
	log := sliceLog{start: start, width: time.Second}
	at := start.Add(time.Millisecond)
	for i := 0; i < 9; i++ {
		log.add(at, 100, time.Millisecond)
		log.observe(at, 1000)
	}
	log.add(at, 100, 91*time.Millisecond) // the host stalled for 90 ms
	log.observe(at, 90e6)
	figs := log.figures(1, m)
	if len(figs) != 1 || figs[0].speed <= 0 {
		t.Fatalf("figures: %+v", figs)
	}
	f := figs[0]
	if want := 100e3 / f.speed; math.Abs(f.refRate-want) > 1e-6*want {
		t.Errorf("refRate %v, want %v: 100 per millisecond at host speed %v", f.refRate, want, f.speed)
	}
	if want := 1000 / 0.1; math.Abs(f.wallRate-want) > 1e-6*want {
		t.Errorf("wallRate %v, want %v: 1000 in 100 ms", f.wallRate, want)
	}
	if want := 1000 * f.speed; math.Abs(f.refLatNs-want) > 1e-6*want {
		t.Errorf("refLatNs %v, want %v", f.refLatNs, want)
	}
}
