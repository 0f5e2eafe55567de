package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/quarantine"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// E3Result is the corruption-rate characterization: the spread of
// per-defect rates (with empirical validation for the hot tail) and the
// operating-point sensitivity curves.
type E3Result struct {
	// Rates holds the per-defect activation rate (corruptions per
	// matching operation at nominal) across a sampled population.
	Rates []float64
	// DecadeSpread is the number of decades the non-zero rates span.
	DecadeSpread int
	// EmpiricalChecked and EmpiricalAgree count hot defects whose
	// empirically measured rate was validated against the model rate
	// (within 3x) by actually executing operations through the engine.
	EmpiricalChecked, EmpiricalAgree int
	// FreqCurves maps a defect label to its rate at each frequency in
	// FreqAxis — including a lower-frequency-worse defect (§5).
	FreqAxis   []float64
	FreqCurves map[string][]float64
}

// E3 samples defects from the catalog, reports the population rate spread,
// validates the hot tail empirically through the engine, and sweeps
// frequency for three archetypes.
func E3(s Scale) E3Result {
	rng := xrand.New(11)
	nDefects := 150
	opsPer := uint64(400_000)
	if s == Full {
		nDefects = 500
		opsPer = 2_000_000
	}
	out := E3Result{FreqCurves: map[string][]float64{}}
	for i := 0; i < nDefects; i++ {
		d := fault.SampleDefect(fmt.Sprintf("e3-%d", i), rng)
		if d.Onset > 0 {
			d.Onset = 0 // characterize as if past onset
		}
		rate := d.Rate(fault.Nominal, 0)
		if d.PatternMask != 0 {
			rate /= float64(uint64(1) << popcount(d.PatternMask))
		}
		if rate <= 0 {
			continue
		}
		out.Rates = append(out.Rates, rate)
		// Hot tail: validate the model empirically with an op budget
		// sized for ~30 expected hits (capped).
		if rate >= 3e-6 && !d.Deterministic && d.PatternMask == 0 {
			ops := uint64(30 / rate)
			if ops > opsPer*25 {
				ops = opsPer * 25
			}
			core := fault.NewCore(fmt.Sprintf("e3c%d", i), rng, d)
			e := engine.New(core)
			driveUnit(e, d.Unit, ops, rng)
			got := core.ObservedRate()
			out.EmpiricalChecked++
			if got > rate/3 && got < rate*3 {
				out.EmpiricalAgree++
			}
		}
	}
	out.DecadeSpread = stats.DecadeSpread(out.Rates)

	// Frequency sweeps for three §5 archetypes. Rates are analytic here
	// (the defect model's Rate), which is what a plot of per-frequency
	// measured rates converges to.
	out.FreqAxis = []float64{2.0, 2.4, 2.8, 3.2, 3.6}
	arch := map[string]fault.Defect{
		"freq-sensitive":   {Unit: fault.UnitALU, BaseRate: 1e-6, Sens: fault.Sensitivity{Freq: 2.0}},
		"freq-insensitive": {Unit: fault.UnitALU, BaseRate: 1e-6},
		"low-freq-worse":   {Unit: fault.UnitALU, BaseRate: 1e-6, Sens: fault.Sensitivity{Freq: -1.5}},
	}
	for name, d := range arch {
		var curve []float64
		for _, f := range out.FreqAxis {
			pt := fault.Nominal
			pt.FreqGHz = f
			curve = append(curve, d.Rate(pt, 0))
		}
		out.FreqCurves[name] = curve
	}
	return out
}

// driveUnit issues ops that exercise the given unit.
func driveUnit(e *engine.Engine, u fault.Unit, n uint64, rng *xrand.RNG) {
	mem := engine.NewMemory(64)
	var v uint64 = 1
	buf := make([]byte, 64)
	dst := make([]byte, 64)
	for i := uint64(0); i < n; i++ {
		a := rng.Uint64()
		switch u {
		case fault.UnitALU:
			v = e.Add64(v, a)
		case fault.UnitMul:
			v = e.Mul64(v|1, a|1)
		case fault.UnitDiv:
			q, _ := e.Div64(a, v|1)
			v = q
		case fault.UnitFPU:
			_ = e.FAdd(float64(a%1000), 1.5)
		case fault.UnitVec:
			e.Copy(dst[:8], buf[:8])
		case fault.UnitCrypto:
			v = e.CryptoEncrypt64(a, 42)
		case fault.UnitAtomic:
			e.FetchAdd(&v, 1)
		case fault.UnitLSU:
			e.Store(mem, a%64, v)
			e.ClearTrap()
		}
	}
}

// popcount returns the number of set bits.
func popcount(x uint64) uint {
	var n uint
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Table renders E3.
func (r E3Result) Table() string {
	var b strings.Builder
	qs := stats.Quantiles(r.Rates, 0, 0.25, 0.5, 0.75, 1)
	fmt.Fprintf(&b, "E3 — corruption-rate spread across %d defects\n", len(r.Rates))
	fmt.Fprintf(&b, "min=%.2e p25=%.2e median=%.2e p75=%.2e max=%.2e\n",
		qs[0], qs[1], qs[2], qs[3], qs[4])
	fmt.Fprintf(&b, "decades spanned: %d (paper: \"many orders of magnitude\")\n", r.DecadeSpread)
	fmt.Fprintf(&b, "empirical validation of hot tail: %d/%d within 3x of model\n\n",
		r.EmpiricalAgree, r.EmpiricalChecked)
	fmt.Fprintf(&b, "frequency sensitivity (activation rate vs core frequency, GHz):\n")
	fmt.Fprintf(&b, "%-18s", "defect")
	for _, f := range r.FreqAxis {
		fmt.Fprintf(&b, "%10.1f", f)
	}
	fmt.Fprintln(&b)
	for _, name := range []string{"freq-sensitive", "freq-insensitive", "low-freq-worse"} {
		fmt.Fprintf(&b, "%-18s", name)
		for _, v := range r.FreqCurves[name] {
			fmt.Fprintf(&b, "%10.2e", v)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "paper (§5): some rates strongly frequency-sensitive, some not; lower\n")
	fmt.Fprintf(&b, "frequency sometimes (surprisingly) increases the failure rate\n")
	return b.String()
}

// E4Row is one screening-policy point on the cost/detection frontier.
type E4Row struct {
	Policy           string
	ScreenOpsPerDay  uint64
	DetectedFraction float64
	// RapidFraction is the share of active defects quarantined within 7
	// days of becoming active — a latency-bounded detection metric that
	// is robust to the composition effect (bigger budgets catch extra,
	// slower cores, which inflates a plain mean latency).
	RapidFraction   float64
	MeanLatencyDays float64
	FalsePositives  int
}

// E4Result is the offline-vs-online screening trade-off.
type E4Result struct{ Rows []E4Row }

// E4 sweeps the online screening budget and compares against a no-
// screening baseline: the §6 trade-off between detection latency/coverage
// and screening cost. Results are averaged over several defect
// populations to damp single-defect luck.
func E4(s Scale) E4Result {
	budgets := []uint64{0, 10_000, 50_000, 250_000}
	seeds := []uint64{1, 7, 19, 31, 43}
	nDays := days(s, 40, 120)
	var out E4Result
	for _, budget := range budgets {
		name := fmt.Sprintf("online-%d", budget)
		if budget == 0 {
			name = "signals-only"
		}
		row := E4Row{Policy: name, ScreenOpsPerDay: budget}
		for _, seed := range seeds {
			cfg := fleetConfig(s)
			cfg.Seed = seed
			cfg.ScreenOpsPerCoreDay = budget
			r := newRunner(cfg)
			r.Run(nDays)
			rep := metrics.Detection(r.Fleet(), nDays)
			row.DetectedFraction += rep.DetectedFraction() / float64(len(seeds))
			row.MeanLatencyDays += rep.MeanLatencyDays() / float64(len(seeds))
			row.FalsePositives += rep.FalsePositive
			rapid := 0
			for _, l := range rep.LatencyDays {
				if l <= 7 {
					rapid++
				}
			}
			if rep.PastOnset > 0 {
				row.RapidFraction += float64(rapid) / float64(rep.PastOnset) / float64(len(seeds))
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Table renders E4.
func (r E4Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4 — screening budget vs detection (§6 trade-off)\n")
	fmt.Fprintf(&b, "%-16s %14s %12s %14s %12s %6s\n",
		"policy", "ops/core/day", "detected", "within 7 days", "latency(d)", "FPs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %14d %11.0f%% %13.0f%% %12.1f %6d\n",
			row.Policy, row.ScreenOpsPerDay, 100*row.DetectedFraction,
			100*row.RapidFraction, row.MeanLatencyDays, row.FalsePositives)
	}
	fmt.Fprintf(&b, "paper: online screening is cheap but \"cannot always provide complete\n")
	fmt.Fprintf(&b, "coverage\"; more budget buys detection and cuts latency\n")
	return b.String()
}

// E6Row is one isolation-mode outcome.
type E6Row struct {
	Mode            string
	QuarantinedRefs int
	CoresLost       int // schedulable cores removed from the pool
	CoresSalvaged   int // restricted cores still serving safe tasks
	Migrations      int
}

// E6Result compares isolation mechanisms.
type E6Result struct{ Rows []E6Row }

// E6 runs the same fleet under the three §6.1 isolation modes and
// compares stranded capacity.
func E6(s Scale) E6Result {
	nDays := days(s, 45, 120)
	var out E6Result
	for _, mode := range []quarantine.Mode{quarantine.MachineDrain, quarantine.CoreRemoval, quarantine.SafeTasks} {
		cfg := fleetConfig(s)
		cfg.Policy = quarantine.Policy{Mode: mode, RequireConfession: true}
		r := newRunner(cfg)
		r.Run(nDays)
		f := r.Fleet()
		cap := f.Cluster().Capacity()
		out.Rows = append(out.Rows, E6Row{
			Mode:            mode.String(),
			QuarantinedRefs: len(f.Manager().Records()),
			CoresLost:       cap.Offline + cap.DrainedCores,
			CoresSalvaged:   cap.Restricted,
			Migrations:      f.Cluster().Migrations,
		})
	}
	return out
}

// Table renders E6.
func (r E6Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E6 — isolation mechanism vs stranded capacity (§6.1)\n")
	fmt.Fprintf(&b, "%-15s %12s %11s %13s %11s\n",
		"mode", "quarantines", "cores lost", "cores salvaged", "migrations")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-15s %12d %11d %13d %11d\n",
			row.Mode, row.QuarantinedRefs, row.CoresLost, row.CoresSalvaged, row.Migrations)
	}
	fmt.Fprintf(&b, "paper: machine drain is simple but coarse; core removal strands one core;\n")
	fmt.Fprintf(&b, "safe-task placement avoids \"the cost of stranding those cores\"\n")
	return b.String()
}

// E12Result is the coverage-dependence of the §4 incidence metric.
type E12Result struct{ Points []metrics.CoveragePoint }

// E12 measures the detected fraction of mercurial cores as a function of
// screening-corpus size, averaged over several defect populations (single
// populations are small enough that one defect's luck dominates).
func E12(s Scale) E12Result {
	sizes := []int{1, 3, 7, 14}
	seeds := []uint64{1, 7, 19}
	if s == Full {
		seeds = []uint64{1, 7, 19, 31, 43}
	}
	acc := make([]metrics.CoveragePoint, len(sizes))
	for i, n := range sizes {
		acc[i].Workloads = n
	}
	for _, seed := range seeds {
		cfg := fleetConfig(s)
		cfg.Seed = seed
		pts, err := metrics.CoverageCurve(cfg, sizes, days(s, 40, 90))
		if err != nil {
			panic(err)
		}
		for i, p := range pts {
			acc[i].DetectedFraction += p.DetectedFraction / float64(len(seeds))
			acc[i].Quarantined += p.Quarantined
		}
	}
	return E12Result{Points: acc}
}

// Table renders E12.
func (r E12Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E12 — measured \"fraction of cores with CEE\" vs test coverage (§4)\n")
	fmt.Fprintf(&b, "%-22s %18s %12s\n", "corpus workloads", "detected fraction", "quarantines")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-22d %17.0f%% %12d\n", p.Workloads, 100*p.DetectedFraction, p.Quarantined)
	}
	fmt.Fprintf(&b, "paper: the metric \"depends on test coverage ... and how many cycles are\n")
	fmt.Fprintf(&b, "devoted to testing\" — the measured incidence is an artifact of the corpus\n")
	return b.String()
}
