// Package experiments contains the drivers that regenerate every figure
// and quantified claim of "Cores that don't count" (HotOS '21). Each
// experiment has an id (F1 = Fig. 1; E1..E14 = the per-claim experiments
// catalogued in DESIGN.md), a Run function returning a result value, and a
// Table method rendering the rows the paper's text/figure reports.
//
// cmd/fleetsim prints the tables through Write; experiments_output.txt is
// that output at Small scale, pinned byte for byte by TestExperimentsGolden.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/quarantine"
	"repro/internal/screen"
)

// Scale selects experiment sizes: Small for CI/benchmarks, Full for the
// EXPERIMENTS.md artifacts.
type Scale int

const (
	// Small runs in seconds.
	Small Scale = iota
	// Full runs the paper-scale version (minutes).
	Full
)

// fleetConfig returns the per-scale base fleet configuration. The defect
// density is raised at Small scale so statistics emerge from a smaller
// fleet; E1 uses the paper-faithful density explicitly.
func fleetConfig(s Scale) fleet.Config {
	cfg := fleet.DefaultConfig()
	switch s {
	case Full:
		cfg.Machines = 2000
		cfg.CoresPerMachine = 32
		cfg.DefectsPerMachine = 0.01
	default:
		cfg.Machines = 400
		cfg.CoresPerMachine = 16
		cfg.DefectsPerMachine = 0.05
		cfg.ConfessionConfig = screen.NewConfig(screen.WithPasses(30),
			screen.WithSweep(2, 1, 2), screen.WithMaxOps(8_000_000))
	}
	return cfg
}

// newRunner builds the fleet for cfg. The drivers' configurations are
// fixed, so NewRunner rejecting one is a bug.
func newRunner(cfg fleet.Config) *fleet.Runner {
	r, err := fleet.NewRunner(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func days(s Scale, small, full int) int {
	if s == Full {
		return full
	}
	return small
}

// F1Result is the Fig. 1 reproduction: normalized weekly user- and
// automatically-reported CEE rates per machine.
type F1Result struct {
	Rates     []fleet.WeeklyRate
	AutoSlope float64
	UserSlope float64
}

// F1 regenerates Fig. 1: a year of fleet telemetry with quarantine
// disabled (the figure reports raw incident rates), normalized to the
// first non-zero automated rate.
func F1(s Scale) F1Result {
	cfg := fleetConfig(s)
	cfg.Policy = quarantine.Policy{Mode: quarantine.CoreRemoval, MinScore: 1e18}
	daily := newRunner(cfg).Run(days(s, 180, 365))
	rates := fleet.Normalize(fleet.WeeklyRates(daily, cfg.Machines))
	return F1Result{
		Rates:     rates,
		AutoSlope: fleet.TrendSlope(rates, func(r fleet.WeeklyRate) float64 { return r.Auto }),
		UserSlope: fleet.TrendSlope(rates, func(r fleet.WeeklyRate) float64 { return r.User }),
	}
}

// Table renders the Fig. 1 series.
func (r F1Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F1 / Fig. 1 — normalized CEE report rates per machine per week\n")
	fmt.Fprintf(&b, "%-6s %12s %12s\n", "week", "auto", "user")
	for _, w := range r.Rates {
		fmt.Fprintf(&b, "%-6d %12.3f %12.3f\n", w.Week, w.Auto, w.User)
	}
	fmt.Fprintf(&b, "auto-rate slope/week: %+.4f (paper: gradually increasing)\n", r.AutoSlope)
	fmt.Fprintf(&b, "user-rate slope/week: %+.4f (paper: roughly flat)\n", r.UserSlope)
	return b.String()
}

// E1Result is the fleet-incidence claim check.
type E1Result struct {
	Machines        int
	MercurialCores  int
	PerThousandMach float64
}

// E1 checks "a few mercurial cores per several thousand machines" with the
// paper-faithful defect density.
func E1(s Scale) E1Result {
	cfg := fleetConfig(s)
	cfg.DefectsPerMachine = 0.002 // paper-faithful density
	cfg.Machines = 4000
	if s == Full {
		cfg.Machines = 20000
	}
	cfg.CoresPerMachine = 8 // population only; cores are not simulated here
	n := len(newRunner(cfg).Fleet().Defects())
	return E1Result{
		Machines:        cfg.Machines,
		MercurialCores:  n,
		PerThousandMach: 1000 * float64(n) / float64(cfg.Machines),
	}
}

// Table renders the incidence row.
func (r E1Result) Table() string {
	return fmt.Sprintf(
		"E1 — incidence: %d mercurial cores in %d machines = %.2f per 1000 machines\n"+
			"paper: \"on the order of a few mercurial cores per several thousand machines\"\n",
		r.MercurialCores, r.Machines, r.PerThousandMach)
}

// E2Result is the outcome-class distribution (§2's risk ladder).
type E2Result struct {
	Total     int64
	ByOutcome [5]int64
}

// E2 measures how corruptions split across §2's symptom classes.
func E2(s Scale) E2Result {
	cfg := fleetConfig(s)
	daily := newRunner(cfg).Run(days(s, 60, 180))
	var out E2Result
	for _, d := range daily {
		out.Total += d.Corruptions
		for i, v := range d.ByOutcome {
			out.ByOutcome[i] += v
		}
	}
	return out
}

// Table renders the distribution.
func (r E2Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2 — CEE outcome distribution over %d corruptions (§2 risk ladder)\n", r.Total)
	names := []string{"wrong answer, detected immediately", "crash/segfault", "machine check",
		"wrong answer, detected late", "wrong answer, never detected"}
	for i, n := range names {
		frac := 0.0
		if r.Total > 0 {
			frac = float64(r.ByOutcome[i]) / float64(r.Total)
		}
		fmt.Fprintf(&b, "%-38s %10d  (%5.1f%%)\n", n, r.ByOutcome[i], 100*frac)
	}
	return b.String()
}

// E5Result is the human-triage ledger.
type E5Result struct {
	fleet.TriageStats
}

// E5 isolates the human triage channel (automated quarantine off) and
// measures the confirmation rate against the paper's "roughly half".
func E5(s Scale) E5Result {
	cfg := fleetConfig(s)
	cfg.Machines *= 4
	cfg.Policy = quarantine.Policy{Mode: quarantine.CoreRemoval, MinScore: 1e18}
	r := newRunner(cfg)
	r.Run(days(s, 120, 365))
	return E5Result{r.Fleet().Triage}
}

// ConfirmationRate returns confirmed/investigated, or 0.
func (r E5Result) ConfirmationRate() float64 {
	if r.Investigated == 0 {
		return 0
	}
	return float64(r.Confirmed) / float64(r.Investigated)
}

// Table renders the ledger.
func (r E5Result) Table() string {
	return fmt.Sprintf(
		"E5 — human triage: %d investigated, %d confirmed (%.0f%%), "+
			"%d false accusations, %d real-but-not-reproduced\n"+
			"paper: \"roughly half ... proven to be mercurial cores; the other half is a\n"+
			"mix of false accusations and limited reproducibility\"\n",
		r.Investigated, r.Confirmed, 100*r.ConfirmationRate(),
		r.FalseAccusations, r.RealNotReproduced)
}

// E11Result is the aging/onset study.
type E11Result struct {
	OnsetDays        []float64
	ImmediateN       int
	LatentN          int
	MedianLatentDays float64
}

// E11 reports the age-until-onset distribution of the defect population.
func E11(s Scale) E11Result {
	cfg := fleetConfig(s)
	cfg.Machines *= 4
	f := newRunner(cfg).Fleet()
	var out E11Result
	var latent []float64
	for _, d := range f.Defects() {
		o := d.FirstActive.Days()
		out.OnsetDays = append(out.OnsetDays, o)
		if o == 0 {
			out.ImmediateN++
		} else {
			out.LatentN++
			latent = append(latent, o)
		}
	}
	if len(latent) > 0 {
		out.MedianLatentDays = median(latent)
	}
	return out
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// Table renders the onset summary.
func (r E11Result) Table() string {
	return fmt.Sprintf(
		"E11 — aging: %d defects active at install, %d latent; median latent onset %.0f days\n"+
			"paper: \"these can manifest long after initial installation\"\n",
		r.ImmediateN, r.LatentN, r.MedianLatentDays)
}
