// Command bench is the repository's one benchmark: five named workloads,
// each checked for correct output, each reporting end-to-end figures with
// tracing off and per-layer figures from a second, traced run. The layers
// are measured from outside — by timing calls into their public functions
// and reading seams the code already exposes — so no file outside bench/
// knows the harness exists. See README.md in this directory.
//
//	bash bench/run.sh                                  # all five, untraced then traced
//	bash bench/run.sh --workload kv-serve --seed 7 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/bench/hist"
)

// env is what a workload is run with.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	// quick shrinks every workload to a couple of seconds so that
	// `go test ./bench/...` runs the whole harness on every change.
	quick bool
	// outDir holds everything a run leaves behind: WAL files and, from a
	// traced run, trace-<workload>.jsonl.
	outDir string
	// slots is the number of issuing goroutines of the open-loop stream:
	// min(nproc, 4). The closed-loop workloads have one client each.
	slots int
}

// result is one run of one workload.
type result struct {
	attempted, failed int64
	// values holds the catalogue metrics this run measured, by name:
	// end-to-end names from an untraced run, per-layer names from a traced
	// one.
	values map[string]float64
	// rows is the human-readable report: every figure under the name the
	// issue gave it, with unit, sample count and tail.
	rows []row
	// spans is what a traced run writes to trace-<workload>.jsonl.
	spans *recorder
}

type row struct {
	name  string
	value float64
	unit  string
	note  string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// show adds a line to the human-readable report only.
func (r *result) show(name string, v float64, unit, note string) {
	r.rows = append(r.rows, row{name, v, unit, note})
}

// showTiming reports a latency histogram (recorded in ns) as its median in
// unit, with its sample count and the highest percentile that has at
// least ten samples beyond it.
func (r *result) showTiming(name string, h *hist.H, unit string) {
	div := unitNs(unit)
	note := fmt.Sprintf("n=%d", h.Count())
	if pct, v, ok := h.HighestPercentile(); ok && pct > 50 {
		note += fmt.Sprintf(" p%v=%.4g", pct, v/div)
	}
	r.show(name, h.Quantile(0.5)/div, unit, note)
}

func unitNs(unit string) float64 {
	switch unit {
	case "ns":
		return 1
	case "us":
		return 1e3
	case "ms":
		return 1e6
	}
	panic("bench: no nanosecond scale for unit " + unit)
}

// output is the last line of stdout, the shape the driver reads.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish turns a workload's result into the driver's JSON object: every
// metric of the mode's list, 0 for per-layer names the workload left idle.
// A name outside the catalogue, or a missing or zero end-to-end metric, is
// a bug in the workload and fails the run.
func finish(res *result, traced bool) (output, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	known := specNames(specs)
	for name := range res.values {
		if !known[name] {
			return output{}, fmt.Errorf("metric %q is not in the catalogue for -trace %v", name, traced)
		}
	}
	out := output{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := res.values[s.Name]
		if !traced && (!ok || v <= 0) {
			return output{}, fmt.Errorf("end-to-end metric %q was not measured (got %v)", s.Name, v)
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if out.Attempted < 1 {
		return output{}, fmt.Errorf("nothing was attempted")
	}
	return out, nil
}

func printReport(w io.Writer, name string, e env, res *result, out output) {
	mode := "untraced (end-to-end figures)"
	if e.traced {
		mode = "traced (per-layer figures)"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g %s  GOMAXPROCS=%d nproc=%d\n",
		name, e.seed, e.seconds, mode, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "   attempted=%d failed=%d failed_ratio=%g\n",
		res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	for _, r := range res.rows {
		fmt.Fprintf(w, "   %-34s %14.6g %-6s %s\n", r.name, r.value, r.unit, r.note)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if m := out.Metrics[n]; m.Value != 0 {
			fmt.Fprintf(w, "   %-34s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}

// runOne runs one workload in one mode and prints its report, then (when
// asJSON) the driver's JSON object as the last line.
func runOne(w io.Writer, spec workloadSpec, e env, asJSON bool) error {
	res, err := spec.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", spec.Name, err)
	}
	if res.failed > 0 {
		// A run that fails a correctness gate prints no metrics.
		return fmt.Errorf("%s: %d of %d operations failed or returned wrong output", spec.Name, res.failed, res.attempted)
	}
	out, err := finish(res, e.traced)
	if err != nil {
		return fmt.Errorf("%s: %w", spec.Name, err)
	}
	if res.spans != nil {
		if err := res.spans.writeFile(e.outDir, spec.Name); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	printReport(w, spec.Name, e, res, out)
	if asJSON {
		line, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "one of "+workloadNames()+", or all (each untraced, then traced)")
	seed := fs.Uint64("seed", 7, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	quick := fs.Bool("quick", false, "shrink every workload to about two seconds (smoke test, not a measurement)")
	outDir := fs.String("out", "bench/out", "directory for WAL files and trace-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	e := env{seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick,
		outDir: *outDir, slots: min(runtime.NumCPU(), 4)}
	if *name == "all" {
		for _, spec := range workloads {
			for _, traced := range []bool{false, true} {
				e.traced = traced
				if err := runOne(stdout, spec, e, false); err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
			}
		}
		return 0
	}
	for _, spec := range workloads {
		if spec.Name == *name {
			if err := runOne(stdout, spec, e, true); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
	return 2
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
