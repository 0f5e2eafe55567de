// Command fleetsim drives the fleet simulator through subcommands:
//
//	fleetsim run scenarios/quickstart.yaml     # run a scenario, check its assertions
//	fleetsim run -trace t.jsonl -metrics m.prom scenarios/kv-under-load.yaml
//	fleetsim validate scenarios/*.yaml         # schema-check without running
//	fleetsim experiments -experiment F1        # the paper's experiment registry
//	fleetsim experiments -experiment all -scale full
//	fleetsim chaos                             # fault-inject the control plane
//
// A scenario file (see scenarios/ and DESIGN.md §10) declares the fleet,
// a timeline of events (defect injection, drains, operating-point
// changes, workload phases), and end-state assertions; run executes it
// and exits non-zero when an assertion fails, which is what makes the
// scenario corpus a regression suite. Every run is bit-identical at any
// -parallelism.
//
// Exit codes: 0 success, 1 a failed run, assertion or file, 2 a usage
// error.
//
// fleetsim measures no performance; the repository's one benchmark is
// 'bash bench/run.sh' (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: fleetsim <command> [flags] [args]

Commands:
  run <scenario.yaml>      run one scenario and check its assertions
  validate <file>...       parse and schema-check scenario files
  experiments [flags]      print the paper's experiment tables
  chaos                    fault-inject the control plane, check its invariants
  help                     show this message

Run 'fleetsim <command> -h' for the command's flags. Performance is
measured by 'bash bench/run.sh' (see bench/README.md), not by fleetsim.
`)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one fleetsim invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "validate":
		return cmdValidate(args[1:], stdout, stderr)
	case "experiments":
		return cmdExperiments(args[1:], stdout, stderr)
	case "chaos":
		return cmdChaos(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "fleetsim: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
}

// outputs holds the pre-opened observability sinks. Output paths are
// opened (and thus permission-checked) BEFORE the simulation runs, so an
// unwritable path fails in milliseconds, not after minutes of simulation.
type outputs struct {
	traceFile     *os.File
	metricsFile   *os.File // nil means stdout when metricsWanted
	metricsWanted bool
}

// openOutputs fails fast on unwritable -trace/-metrics paths.
func openOutputs(tracePath, metricsPath string) (*outputs, error) {
	o := &outputs{}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("cannot write -trace output: %v", err)
		}
		o.traceFile = f
	}
	if metricsPath != "" {
		o.metricsWanted = true
		if metricsPath != "-" {
			f, err := os.Create(metricsPath)
			if err != nil {
				if o.traceFile != nil {
					o.traceFile.Close()
				}
				return nil, fmt.Errorf("cannot write -metrics output: %v", err)
			}
			o.metricsFile = f
		}
	}
	return o, nil
}

// write dumps the collected artifacts and closes the files.
func (o *outputs) write(stdout io.Writer, tr *obs.Trace, reg *obs.Registry, tracePath, metricsPath string) error {
	if o.traceFile != nil {
		if err := tr.WriteJSONL(o.traceFile); err != nil {
			o.traceFile.Close()
			return err
		}
		if err := o.traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d events -> %s\n", tr.Len(), tracePath)
	}
	if o.metricsWanted {
		out := stdout
		if o.metricsFile != nil {
			out = o.metricsFile
			defer o.metricsFile.Close()
		}
		if err := reg.WritePrometheus(out); err != nil {
			return err
		}
		if o.metricsFile != nil {
			fmt.Fprintf(stdout, "metrics: -> %s\n", metricsPath)
		}
	}
	return nil
}

// ---- fleetsim run ----

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetsim run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	par := fs.Int("parallelism", 0, "fleet simulation workers (0 = GOMAXPROCS)")
	tracePath := fs.String("trace", "", "write the CEE lifecycle trace (JSONL) to this file")
	metricsPath := fs.String("metrics", "", "write a Prometheus text metrics snapshot to this file, '-' for stdout")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fleetsim run <scenario.yaml> [flags]")
		fs.PrintDefaults()
	}
	// Accept the scenario path before, between, or after flags: the Go
	// flag package stops at the first positional, so parse in rounds,
	// peeling off the single allowed positional each time.
	scenarioPath := ""
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		if scenarioPath != "" {
			fs.Usage()
			return 2
		}
		scenarioPath = fs.Arg(0)
		rest = fs.Args()[1:]
	}
	if *par < 0 {
		fmt.Fprintf(stderr, "fleetsim: -parallelism must be >= 0, got %d\n", *par)
		return 2
	}
	if scenarioPath == "" {
		fs.Usage()
		return 2
	}
	s, err := scenario.Load(scenarioPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	out, err := openOutputs(*tracePath, *metricsPath)
	if err != nil {
		fmt.Fprintf(stderr, "fleetsim: %v\n", err)
		return 2
	}

	opts := scenario.Options{Parallelism: *par, Metrics: obs.NewRegistry()}
	var tr *obs.Trace
	if *tracePath != "" {
		tr = obs.NewTrace()
		opts.Trace = tr
	}
	res, err := s.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "fleetsim: %v\n", err)
		return 1
	}
	printSummary(stdout, s, res)
	if err := out.write(stdout, tr, opts.Metrics, *tracePath, *metricsPath); err != nil {
		fmt.Fprintf(stderr, "fleetsim: %v\n", err)
		return 1
	}
	if tr != nil {
		if err := traceSelfCheck(stdout, tr, res.Detection, s.Days); err != nil {
			fmt.Fprintf(stderr, "fleetsim: %v\n", err)
			return 1
		}
	}
	if fails := s.Check(res); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(stderr, "FAIL %s\n", f)
		}
		fmt.Fprintf(stderr, "fleetsim: %s: %d assertion(s) failed\n", s.Name, len(fails))
		return 1
	}
	if s.Assert.Count() > 0 {
		fmt.Fprintf(stdout, "assertions: all passed\n")
	}
	return 0
}

// printSummary prints the run's headline numbers.
func printSummary(w io.Writer, s *scenario.Scenario, res *scenario.Result) {
	q := func(name string) int64 { return int64(res.Quantity(name)) }
	rep := res.Detection
	fmt.Fprintf(w, "scenario %s: %d days, %d machines x %d cores\n",
		s.Name, s.Days, s.Fleet.Machines, s.Fleet.CoresPerMachine)
	fmt.Fprintf(w, "run: %d corruptions, %d auto reports, %d user reports, %d screen detections\n",
		q("corruptions"), q("auto_reports"), q("user_reports"), q("screen_detections"))
	fmt.Fprintf(w, "detection: %d defective cores (%d past onset), %d quarantined (TP %d / FP %d), detected fraction %.3f\n",
		rep.TotalDefective, rep.PastOnset, rep.Quarantined,
		rep.TruePositive, rep.FalsePositive, rep.DetectedFraction())
	if q("kv_reads") > 0 || q("kv_errors") > 0 {
		fmt.Fprintf(w, "kvdb: %d reads: %d retries, %d repairs, %d degraded, %d client errors\n",
			q("kv_reads"), q("kv_retries"), q("kv_repairs"), q("kv_degraded"), q("kv_errors"))
	}
	if q("tr_granules") > 0 || q("tr_failures") > 0 {
		fmt.Fprintf(w, "taskrun: %d granules: %d retries, %d restores, %d migrations, %d signals, %d failed tasks\n",
			q("tr_granules"), q("tr_retries"), q("tr_restores"), q("tr_migrations"), q("tr_signals"), q("tr_failures"))
	}
}

// traceSelfCheck audits the trace stream: the detection report derived
// purely from the JSONL events must equal the live fleet's.
func traceSelfCheck(w io.Writer, tr *obs.Trace, rep metrics.DetectionReport, days int) error {
	fromTrace := metrics.DetectionFromTrace(tr.Events(), days)
	if fmt.Sprintf("%+v", fromTrace) != fmt.Sprintf("%+v", rep) {
		return fmt.Errorf("trace self-check failed: trace-derived report %+v != ground truth %+v",
			fromTrace, rep)
	}
	fmt.Fprintln(w, "trace self-check: detection report derived from trace matches ground truth")
	return nil
}

// ---- fleetsim validate ----

func cmdValidate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetsim validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fleetsim validate <scenario.yaml>...")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	bad := 0
	for _, path := range fs.Args() {
		s, err := scenario.Load(path)
		if err != nil {
			bad++
			fmt.Fprintln(stderr, err)
			continue
		}
		fmt.Fprintf(stdout, "ok\t%s\t(%s: %d days, %d events, %d assertions)\n",
			path, s.Name, s.Days, len(s.Events), s.Assert.Count())
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "fleetsim: %d of %d file(s) invalid\n", bad, fs.NArg())
		return 1
	}
	return 0
}

// ---- fleetsim experiments ----

func cmdExperiments(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetsim experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "all", "experiment id (F1, E1..E14) or 'all'")
	scale := fs.String("scale", "small", "small | full")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var s experiments.Scale
	switch *scale {
	case "small":
		s = experiments.Small
	case "full":
		s = experiments.Full
	default:
		fmt.Fprintf(stderr, "fleetsim: unknown scale %q\n", *scale)
		return 2
	}
	ids := []string{strings.ToUpper(*exp)}
	if strings.EqualFold(*exp, "all") {
		ids = experiments.IDs()
	}
	if err := experiments.Write(stdout, ids, s); err != nil {
		fmt.Fprintf(stderr, "fleetsim: %v\n", err)
		return 2
	}
	return 0
}
