package fleet

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Runner is the public entry point for fleet simulation. It owns a Fleet
// and the run policy around it: how many workers each simulated day is
// sharded across, and who observes the daily telemetry.
//
//	r, err := fleet.NewRunner(cfg,
//	        fleet.WithParallelism(8),
//	        fleet.WithObserver(func(d fleet.DayStats) { log(d) }))
//	series := r.Run(365)
//
// Determinism contract: for a fixed Config (including Seed), Run produces
// bit-identical DayStats, quarantine ledger, and triage counters at any
// parallelism — worker count is a performance knob, never a semantic one.
type Runner struct {
	fleet     *Fleet
	observers []func(DayStats)
	// day holds the fleet_* instrument handles, resolved once at
	// construction: recordDay runs every simulated day and each registry
	// lookup takes the registry mutex, so per-day lookups were pure
	// overhead (and, with scrapers attached, lock traffic against them).
	day *dayInstruments
}

// dayInstruments caches the per-day fleet counters and gauges.
type dayInstruments struct {
	corruptions      *obs.Counter
	byOutcome        [numOutcomes]*obs.Counter
	autoReports      *obs.Counter
	userReports      *obs.Counter
	screenDetections *obs.Counter
	quarantines      *obs.Counter
	repairs          *obs.Counter
	activeDefects    *obs.Gauge
	fleetDay         *obs.Gauge
	daySeconds       *obs.Histogram
}

func newDayInstruments(reg *obs.Registry) *dayInstruments {
	di := &dayInstruments{
		corruptions:      reg.Counter("fleet_corruptions_total"),
		autoReports:      reg.Counter("fleet_reports_auto_total"),
		userReports:      reg.Counter("fleet_reports_user_total"),
		screenDetections: reg.Counter("fleet_screen_detections_total"),
		quarantines:      reg.Counter("fleet_quarantines_total"),
		repairs:          reg.Counter("fleet_repairs_total"),
		activeDefects:    reg.Gauge("fleet_active_defects"),
		fleetDay:         reg.Gauge("fleet_day"),
		daySeconds:       reg.Histogram("fleet_day_seconds"),
	}
	for o := Outcome(0); o < numOutcomes; o++ {
		di.byOutcome[o] = reg.Counter("fleet_corruptions_by_outcome_total",
			obs.L("outcome", o.String()))
	}
	return di
}

// RunnerOption configures a Runner under construction.
type RunnerOption func(*runnerOptions) error

type runnerOptions struct {
	parallelism int
	observers   []func(DayStats)
	metrics     *obs.Registry
	trace       *obs.Trace
}

// WithParallelism shards each simulated day across n workers. n == 0 (the
// default) selects runtime.GOMAXPROCS; n == 1 forces the serial reference
// path.
func WithParallelism(n int) RunnerOption {
	return func(o *runnerOptions) error {
		if n < 0 {
			return fmt.Errorf("fleet: parallelism must be >= 0, got %d", n)
		}
		o.parallelism = n
		return nil
	}
}

// WithObserver registers fn to receive every day's telemetry as it is
// produced — progress meters, live plots, streaming exports. Observers run
// on the runner's goroutine, after the day completes, in registration
// order.
func WithObserver(fn func(DayStats)) RunnerOption {
	return func(o *runnerOptions) error {
		if fn == nil {
			return fmt.Errorf("fleet: nil observer")
		}
		o.observers = append(o.observers, fn)
		return nil
	}
}

// WithMetrics routes the run's telemetry into reg: per-day fleet counters
// and gauges, per-phase wall-time histograms, screening and quarantine
// instrumentation, and the report server's ingest counters. Recording is
// lock-free and never consumes randomness, so attaching a registry does
// not perturb simulation results. Nil is rejected — omit the option to
// run without metrics.
func WithMetrics(reg *obs.Registry) RunnerOption {
	return func(o *runnerOptions) error {
		if reg == nil {
			return fmt.Errorf("fleet: nil metrics registry")
		}
		o.metrics = reg
		return nil
	}
}

// WithTrace attaches a CEE lifecycle trace: every defect activation, first
// signal, suspect nomination, confession, quarantine, release, and repair
// is appended to tr as it happens. Events are emitted only from the serial
// phases of each day, so the stream is bit-identical at any parallelism.
func WithTrace(tr *obs.Trace) RunnerOption {
	return func(o *runnerOptions) error {
		if tr == nil {
			return fmt.Errorf("fleet: nil trace")
		}
		o.trace = tr
		return nil
	}
}

// NewRunner validates cfg, builds the fleet population deterministically
// from cfg.Seed, and applies the options.
func NewRunner(cfg Config, opts ...RunnerOption) (*Runner, error) {
	if cfg.Machines <= 0 || cfg.CoresPerMachine <= 0 {
		return nil, fmt.Errorf("fleet: machines and cores must be positive (got %d x %d)",
			cfg.Machines, cfg.CoresPerMachine)
	}
	var o runnerOptions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	f := newFleet(cfg, o.metrics)
	if o.parallelism > 0 {
		f.parallelism = o.parallelism
	}
	if o.trace != nil {
		f.trace = o.trace
	}
	r := &Runner{fleet: f}
	if o.metrics != nil {
		r.day = newDayInstruments(o.metrics)
		// The per-day counter observer runs first, before user observers,
		// so user observers that scrape the registry see the day applied.
		r.observers = append(r.observers, r.recordDay)
	}
	r.observers = append(r.observers, o.observers...)
	return r, nil
}

// recordDay folds one day's telemetry into the cached instruments.
func (r *Runner) recordDay(st DayStats) {
	di := r.day
	di.corruptions.Add(float64(st.Corruptions))
	for o := Outcome(0); o < numOutcomes; o++ {
		di.byOutcome[o].Add(float64(st.ByOutcome[o]))
	}
	di.autoReports.Add(float64(st.AutoReports))
	di.userReports.Add(float64(st.UserReports))
	di.screenDetections.Add(float64(st.ScreenDetections))
	di.quarantines.Add(float64(st.NewQuarantines))
	di.repairs.Add(float64(st.RepairsDone))
	di.activeDefects.Set(float64(st.ActiveDefects))
	di.fleetDay.Set(float64(st.Day))
}

// Fleet exposes the underlying simulator state (defect ground truth,
// quarantine manager, scheduler) for metrics and inspection.
func (r *Runner) Fleet() *Fleet { return r.fleet }

// Step advances the simulation one day and notifies observers.
func (r *Runner) Step() DayStats {
	start := time.Now()
	st := r.fleet.Step()
	if r.day != nil {
		r.day.daySeconds.Observe(time.Since(start).Seconds())
	}
	for _, ob := range r.observers {
		ob(st)
	}
	return st
}

// Run advances the simulation the given number of days and returns the
// daily series.
func (r *Runner) Run(days int) []DayStats {
	out := make([]DayStats, 0, days)
	for i := 0; i < days; i++ {
		out = append(out, r.Step())
	}
	return out
}
