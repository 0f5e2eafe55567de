// Command mercury is the core doctor: it stages a mercurial core on a
// simulated machine and walks the full §6 triage pipeline end to end —
// production incidents, signal aggregation, the concentration test,
// confession screening, and the isolation decision — narrating each step.
//
// Usage:
//
//	mercury                          # default: crypto-self-inverting on core 2
//	mercury -class vec-copy-lane -core 5 -cores 16 -mode safe-tasks
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/forensics"
	"repro/internal/quarantine"
	"repro/internal/sched"
	"repro/internal/screen"
	"repro/internal/xrand"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, narrates to stdout, reports
// errors to stderr, and returns the exit code (2 for a usage error, 1 for
// a failed isolation).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mercury", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cores := fs.Int("cores", 8, "cores on the machine")
	coreIdx := fs.Int("core", 2, "index of the defective core")
	class := fs.String("class", "crypto-self-inverting", "defect class (see screener -list)")
	mode := fs.String("mode", "core-removal", "isolation mode: machine-drain | core-removal | safe-tasks")
	seed := fs.Uint64("seed", 42, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var qmode quarantine.Mode
	switch *mode {
	case "machine-drain":
		qmode = quarantine.MachineDrain
	case "core-removal":
		qmode = quarantine.CoreRemoval
	case "safe-tasks":
		qmode = quarantine.SafeTasks
	default:
		fmt.Fprintf(stderr, "mercury: unknown mode %q\n", *mode)
		return 2
	}

	m, err := core.NewMachine("host0", *cores, *seed, core.WithDefectClass(*coreIdx, *class))
	if err != nil {
		fmt.Fprintln(stderr, "mercury:", err)
		return 2
	}
	d := m.Core(*coreIdx).Defects[0]
	fmt.Fprintf(stdout, "staged defect on host0/%d: %v\n\n", *coreIdx, &d)

	// Step 1: production incidents. Applications report suspect cores to
	// the tracker; the defective core concentrates reports, while
	// background software bugs spread evenly.
	fmt.Fprintln(stdout, "[1] incident signals arriving at the report service")
	tracker := detect.NewTracker(*cores)
	rng := xrand.New(*seed + 1)
	for i := 0; i < 12; i++ {
		tracker.Add(detect.Signal{Machine: "host0", Core: *coreIdx,
			Kind: detect.SigAppError, Time: 0})
	}
	for i := 0; i < 10; i++ {
		tracker.Add(detect.Signal{Machine: "host0", Core: rng.Intn(*cores),
			Kind: detect.SigCrash, Time: 0})
	}
	fmt.Fprintf(stdout, "    %d reports on host0 (12 from the bad core, 10 software-bug noise)\n\n", tracker.Reports("host0"))

	// Step 2: concentration test.
	fmt.Fprintln(stdout, "[2] concentration analysis (evenly spread = software bug; concentrated = CEE)")
	suspects := tracker.Suspects()
	if len(suspects) == 0 {
		fmt.Fprintln(stdout, "    no suspects nominated; exiting")
		return 0
	}
	for _, s := range suspects {
		fmt.Fprintf(stdout, "    suspect host0/core%d: %d reports, p-value %.2e, score %.1f\n",
			s.Core, s.Reports, s.PValue, s.Score())
	}
	top := suspects[0]
	fmt.Fprintln(stdout)

	// Step 3: confession screening against the physical core.
	fmt.Fprintln(stdout, "[3] confession screening (deep corpus sweep over f, V, T)")
	conf := detect.Confess(m.Core(top.Core), screen.Deep(), xrand.New(*seed+2))
	if !conf.Confirmed {
		fmt.Fprintln(stdout, "    no confession extracted: exonerated (false accusation or limited reproducibility)")
		return 0
	}
	det := conf.Report.Detections[0]
	fmt.Fprintf(stdout, "    CONFESSED after %d ops: %s failed at f=%.1fGHz V=%.2fV T=%.0fC\n",
		conf.Report.OpsToFirstDetection, det.Result.Workload,
		det.Point.FreqGHz, det.Point.VoltageV, det.Point.TempC)
	fmt.Fprintf(stdout, "    detail: %s\n\n", det.Result.Detail)

	// Step 3b: forensic classification — is this a known defect mode or
	// a novel one needing a new automatable test (§6/§9)?
	fmt.Fprintln(stdout, "[3b] forensic classification")
	characterization := screen.Screen(m.Core(top.Core),
		screen.NewConfig(screen.WithPasses(2), screen.WithSweep(2, 1, 2),
			screen.WithStopOnDetect(false)), xrand.New(*seed+9))
	db := forensics.NewModeDB()
	db.Observe(forensics.Mode{Units: []fault.Unit{fault.UnitALU}}) // previously seen
	db.Observe(forensics.Mode{Units: []fault.Unit{fault.UnitVec}}) // previously seen
	if mode, ok := forensics.Classify(characterization); ok {
		novelty := "KNOWN mode"
		if db.Observe(mode) {
			novelty = "NOVEL mode — time to write a new screening test"
		}
		fmt.Fprintf(stdout, "    signature %s: %s\n\n", mode.Key(), novelty)
	} else {
		fmt.Fprintln(stdout, "    characterization produced no failures to classify")
	}

	// Step 4: isolation.
	fmt.Fprintf(stdout, "[4] isolation (%s)\n", qmode)
	cluster := sched.NewCluster()
	if _, err := cluster.AddMachine("host0", *cores); err != nil {
		fmt.Fprintln(stderr, "mercury:", err)
		return 1
	}
	for i := 0; i < *cores; i++ {
		if _, err := cluster.Place(&sched.Task{ID: fmt.Sprintf("task%d", i),
			Units: []fault.Unit{fault.UnitALU}}); err != nil {
			break
		}
	}
	mgr := quarantine.NewManager(cluster, quarantine.Policy{Mode: qmode})
	rec, err := mgr.Handle(top, 0, func(cfg screen.Config) detect.Confession {
		return detect.Confess(m.Core(top.Core), cfg, xrand.New(*seed+3))
	})
	if err != nil {
		fmt.Fprintln(stderr, "mercury:", err)
		return 1
	}
	if rec == nil {
		fmt.Fprintln(stdout, "    policy declined to isolate")
		return 0
	}
	cap := cluster.Capacity()
	fmt.Fprintf(stdout, "    isolated %v: %d tasks evicted, %d re-placed\n",
		rec.Ref, rec.EvictedTasks, rec.ReplacedTasks)
	if len(rec.BannedUnits) > 0 {
		fmt.Fprintf(stdout, "    core restricted: banned units %v (safe tasks may still run)\n", rec.BannedUnits)
	}
	fmt.Fprintf(stdout, "    capacity: %d schedulable, %d restricted, %d offline, %d drained\n",
		cap.Schedulable, cap.Restricted, cap.Offline, cap.DrainedCores)

	// Step 5: show the defect is really gone from the serving path.
	fmt.Fprintln(stdout, "\n[5] verification: workload re-run on a healthy core")
	e := engine.New(m.Core((top.Core + 1) % *cores))
	if e.Add64(2, 2) == 4 {
		fmt.Fprintln(stdout, "    2 + 2 = 4 — the fleet counts again")
	}
	return 0
}
