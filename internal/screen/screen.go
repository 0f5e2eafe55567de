// Package screen implements the mercurial-core screening infrastructure of
// §6: running the self-checking corpus against cores, offline (drained
// core, full corpus, operating-point sweeps) and online (spare-cycle
// sampling with partial coverage), with cost and coverage accounting.
//
// Screening is the paper's "first line of defense": testing as part of the
// full lifecycle of a CPU, not just burn-in.
package screen

import (
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// Config parameterizes one screening session.
type Config struct {
	// Workloads is the corpus subset to run; nil means corpus.All().
	Workloads []corpus.Workload
	// Passes repeats the whole corpus this many times per operating
	// point (intermittent defects need repetition). Minimum 1.
	Passes int `scn:"passes"`
	// Points is the set of operating points to sweep; nil means screen
	// only at the core's current point. Offline screening "could involve
	// exposing CPUs to operating conditions outside normal ranges" (§6).
	Points []fault.OperatingPoint
	// StopOnDetect ends the session at the first detection, the cheap
	// policy; when false the full budget runs (better characterization).
	StopOnDetect bool
	// MaxOps bounds the session's engine-operation budget; 0 = unlimited.
	MaxOps uint64 `scn:"max_ops"`
	// Metrics, when set, receives screening telemetry (sessions, passes,
	// detections, ops). Recording is lock-free, so sessions sharded
	// across workers may share one registry. Nil records nothing.
	Metrics *obs.Registry
}

// record folds one finished session report into the configured registry.
func (cfg *Config) record(rep *Report) {
	r := cfg.Metrics
	if r == nil {
		return
	}
	r.Counter("screen_sessions_total").Inc()
	r.Counter("screen_passes_total").Add(float64(rep.PassesRun))
	r.Counter("screen_ops_total").Add(float64(rep.OpsUsed))
	if rep.Detected {
		r.Counter("screen_sessions_detected_total").Inc()
	}
	r.Counter("screen_detections_total").Add(float64(len(rep.Detections)))
}

// Deep returns the thorough config used for confession testing of
// suspects: many passes over an operating-point sweep.
func Deep() Config {
	return NewConfig(WithPasses(8), WithSweep(3, 3, 3))
}

// SweepPoints builds an (f, V, T) grid around the nominal point with the
// given number of steps per axis, including stress corners.
func SweepPoints(fSteps, vSteps, tSteps int) []fault.OperatingPoint {
	if fSteps < 1 {
		fSteps = 1
	}
	if vSteps < 1 {
		vSteps = 1
	}
	if tSteps < 1 {
		tSteps = 1
	}
	freqs := axis(2.0, 3.6, fSteps)
	volts := axis(0.85, 1.1, vSteps)
	temps := axis(40, 95, tSteps)
	var pts []fault.OperatingPoint
	for _, f := range freqs {
		for _, v := range volts {
			for _, t := range temps {
				pts = append(pts, fault.OperatingPoint{FreqGHz: f, VoltageV: v, TempC: t})
			}
		}
	}
	return pts
}

func axis(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// Detection records one failed workload run during screening.
type Detection struct {
	Result corpus.Result
	Point  fault.OperatingPoint
	Pass   int
}

// Report summarizes one screening session.
type Report struct {
	CoreID string
	// Detected is true if any workload failed a self-check or trapped.
	Detected bool
	// Detections lists every failure observed (first one first).
	Detections []Detection
	// OpsUsed is the total engine operations consumed — the screening
	// cost that §6's offline/online trade-off is about.
	OpsUsed uint64
	// OpsToFirstDetection is the cost until the first detection
	// (equals OpsUsed when nothing was detected).
	OpsToFirstDetection uint64
	// PassesRun counts completed (point, pass) corpus iterations.
	PassesRun int
	// UnitsCovered are the execution units exercised by the workloads
	// that actually ran.
	UnitsCovered map[fault.Unit]bool
}

// Screen runs one screening session against core. The core's operating
// point is saved and restored around sweeps. Determinism: same core state,
// config, and rng seed produce the same report.
func Screen(core *fault.Core, cfg Config, rng *xrand.RNG) Report {
	ws := cfg.Workloads
	if ws == nil {
		ws = corpus.All()
	}
	passes := cfg.Passes
	if passes < 1 {
		passes = 1
	}
	points := cfg.Points
	restore := core.Point
	defer func() { core.Point = restore }()
	if points == nil {
		points = []fault.OperatingPoint{restore}
	}

	e := engine.New(core)
	rep := Report{CoreID: core.ID, UnitsCovered: map[fault.Unit]bool{}}
	startOps := core.TotalOps()
	defer func() { cfg.record(&rep) }()

	// Pass-major order: every operating point is visited once per pass,
	// so stress corners are reached early even under a tight op budget.
	// (§4 notes that the order of the (f,V,T) sweep impacts
	// time-to-failure; point-major order can exhaust the budget before
	// ever leaving the first corner.)
	for pass := 0; pass < passes; pass++ {
		for _, pt := range points {
			core.Point = pt
			for _, w := range ws {
				if cfg.MaxOps > 0 && core.TotalOps()-startOps >= cfg.MaxOps {
					rep.OpsUsed = core.TotalOps() - startOps
					if !rep.Detected {
						rep.OpsToFirstDetection = rep.OpsUsed
					}
					return rep
				}
				res := w.Run(e, rng)
				for _, u := range w.Units() {
					rep.UnitsCovered[u] = true
				}
				if res.Verdict != corpus.Pass {
					if !rep.Detected {
						rep.Detected = true
						rep.OpsToFirstDetection = core.TotalOps() - startOps
					}
					rep.Detections = append(rep.Detections, Detection{
						Result: res, Point: pt, Pass: rep.PassesRun,
					})
					if cfg.StopOnDetect {
						rep.OpsUsed = core.TotalOps() - startOps
						rep.PassesRun++
						return rep
					}
				}
			}
			rep.PassesRun++
		}
	}
	rep.OpsUsed = core.TotalOps() - startOps
	if !rep.Detected {
		rep.OpsToFirstDetection = rep.OpsUsed
	}
	return rep
}

// Online models spare-cycle screening (§6): each TickOn runs a few randomly
// chosen workloads within a small op budget, accumulating coverage over
// many ticks instead of draining the core.
type Online struct {
	// BudgetOps bounds engine operations per tick.
	BudgetOps uint64
	// Workloads is the corpus to sample from; nil means corpus.All().
	Workloads []corpus.Workload

	// Sharded counter handles resolved by Bind; unbound ticks record
	// nothing.
	ticks, ops, detections *obs.ShardedCounter
}

// onlineCounterNames are the per-tick telemetry series. They register as
// sharded counters so concurrent workers never contend on a cache line;
// snapshots merge the shards and render a plain counter.
const (
	onlineTicksName      = "screen_online_ticks_total"
	onlineOpsName        = "screen_online_ops_total"
	onlineDetectionsName = "screen_online_detections_total"
)

// Bind resolves the per-tick counters in reg once, sharded across
// `workers` cells, so recording from worker w (TickOn) is a single
// uncontended atomic add. Call from one goroutine before fanning ticks
// out; a nil reg unbinds, and ticks then record nothing.
func (o *Online) Bind(reg *obs.Registry, workers int) {
	if reg == nil {
		o.ticks, o.ops, o.detections = nil, nil, nil
		return
	}
	o.ticks = reg.ShardedCounter(onlineTicksName, workers)
	o.ops = reg.ShardedCounter(onlineOpsName, workers)
	o.detections = reg.ShardedCounter(onlineDetectionsName, workers)
}

// TickOn runs one online screening slice against core and returns the
// (possibly empty) detections plus the ops consumed. worker is the
// caller's worker identity, which routes the telemetry to that worker's
// counter shard (see parallel.ForEachWorker).
func (o *Online) TickOn(core *fault.Core, rng *xrand.RNG, worker int) ([]corpus.Result, uint64) {
	ws := o.Workloads
	if ws == nil {
		ws = corpus.All()
	}
	budget := o.BudgetOps
	if budget == 0 {
		budget = 100_000
	}
	e := engine.New(core)
	start := core.TotalOps()
	var found []corpus.Result
	for core.TotalOps()-start < budget {
		w := ws[rng.Intn(len(ws))]
		res := w.Run(e, rng)
		if res.Verdict != corpus.Pass {
			found = append(found, res)
		}
	}
	ops := core.TotalOps() - start
	if o.ticks != nil {
		o.ticks.Shard(worker).Inc()
		o.ops.Shard(worker).Add(float64(ops))
		o.detections.Shard(worker).Add(float64(len(found)))
	}
	return found, ops
}
