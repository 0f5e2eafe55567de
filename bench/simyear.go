package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/bench/calib"
	"repro/bench/hist"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/screen"
	"repro/internal/xrand"
)

// sim-year: the fleet simulator's day loop.
//
// The simulator's only input is its Config, and the host time of a day is
// set by a handful of rare events — which defect sites exist, and which of
// them get nominated every day yet never confess. At 20 000 machines that
// is about forty sites, and 180 days cost 8.1 s at population seed 8 and
// 19.7 s at seed 7. A benchmark whose work changes 2.4x with the seed
// cannot resolve a 10 % regression, so the population is pinned: seed 7,
// the instance whose fingerprint is checked in below. -seed does not
// change this workload. A claim is re-checked on another population by
// editing simPopulationSeed, and says so.
const simPopulationSeed = 7

// simBuilds is how many fleet builds the set-up time is the median of.
const simBuilds = 9

// simSize is one fleet size the workload runs at.
type simSize struct {
	machines int
	// gateDays is the prefix that is run again at parallelism 1 and whose
	// DayStats fingerprint is checked in.
	gateDays int
	// minActive is the fewest active defect sites any measured day may
	// have before the run counts as degenerate.
	minActive int
	// fingerprint is fingerprintDays over the first gateDays days at
	// simPopulationSeed.
	fingerprint uint64
	// passes is how many times the same days are simulated; a day's time
	// is the median over the passes.
	passes int
}

var (
	// The issue asks for 20 000 machines x 32 cores (~40 defect sites) and a
	// 30-day gate prefix; the driver's time cap leaves room for a 10-day
	// one, which still covers the start-up burst of nominations.
	simFull = simSize{machines: 20_000, gateDays: 10, minActive: 10, fingerprint: 0xe787a6c8301e2c91, passes: 3}
	// The quick size keeps more than ten sites active but fits in 2 s.
	simQuick = simSize{machines: 12_000, gateDays: 3, minActive: 10, fingerprint: 0x1a81407d0bffa26c, passes: 1}
)

func simConfig(machines int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Machines = machines
	cfg.Seed = simPopulationSeed
	return cfg
}

// simDay is what one Runner.Step produced and cost: on the wall clock,
// and in reference time — the same at the host speed of the calibration
// units run just before and just after it. A day is one opaque stretch of
// up to 800 ms, so the host's stalls cannot be cut out of it as they are
// out of a serving workload's blocks; the speed is therefore by the mean
// unit, which the same stalls lengthen. (Not CPU time: a day's parallel
// phases use every CPU, and a change that parallelises another phase must
// show.)
type simDay struct {
	stats fleet.DayStats
	took  time.Duration
	ref   time.Duration
}

// simUnitsAfter is how many calibration units follow a step that took
// took: about a tenth of its time, so that long days are watched as closely
// as short ones. (At a twentieth, capped at 60, ten identical runs spread
// 4.5 % of their median; at a tenth, 3.5 %; by the median unit, 9 %.)
func simUnitsAfter(took time.Duration) int {
	return min(max(int(took/(10*calib.RefNs)), 6), 200)
}

// fingerprintDays hashes the printed DayStats stream, the same thing the
// repository's determinism goldens pin.
func fingerprintDays(days []simDay) uint64 {
	h := fnv.New64a()
	for i := range days {
		fmt.Fprintf(h, "%v\n", days[i].stats)
	}
	return h.Sum64()
}

// simTotals sums the ground truth of a window: corruptions, quarantines,
// and the fewest active defect sites on any of its days.
func simTotals(days []simDay) (corruptions int64, quarantines, minActive int) {
	minActive = int(^uint(0) >> 1)
	for i := range days {
		corruptions += days[i].stats.Corruptions
		quarantines += days[i].stats.NewQuarantines
		minActive = min(minActive, days[i].stats.ActiveDefects)
	}
	return
}

// checkNonDegenerate rejects a window that would time an empty loop: the
// recorded 1k-machine cell had one defect site that never activated.
func checkNonDegenerate(days []simDay, minActive int) error {
	corruptions, quarantines, active := simTotals(days)
	if len(days) == 0 || corruptions == 0 || quarantines == 0 || active < minActive {
		return fmt.Errorf("degenerate fleet: %d days with %d corruptions, %d quarantines and as few as %d active sites (need > 0, > 0 and >= %d)",
			len(days), corruptions, quarantines, active, minActive)
	}
	return nil
}

// simBuild is one timed fleet build.
type simBuild struct{ wall, ref time.Duration }

// simPass builds a fresh fleet and steps it, timing the build and each day.
func simPass(meter *calib.Meter, machines, parallelism, days int, opts ...fleet.RunnerOption) (build simBuild, out []simDay, r *fleet.Runner, err error) {
	build.wall, build.ref, err = timedSetup(meter, func() (err error) {
		r, err = fleet.NewRunner(simConfig(machines), append(opts, fleet.WithParallelism(parallelism))...)
		return err
	})
	if err != nil {
		return simBuild{}, nil, nil, err
	}
	out = make([]simDay, days)
	before := time.Now()
	meter.SampleN(simUnitsAfter(0))
	for d := range out {
		t := time.Now()
		out[d].stats = r.Step()
		after := time.Now()
		out[d].took = after.Sub(t)
		meter.SampleN(simUnitsAfter(out[d].took))
		out[d].ref = time.Duration(float64(out[d].took) * meter.MeanSpeed(before, time.Now()))
		before = after
	}
	return build, out, r, nil
}

func sumTook(days []simDay) time.Duration {
	var t time.Duration
	for i := range days {
		t += days[i].took
	}
	return t
}

// simGate runs the prefix again at parallelism 1 and checks both against
// each other and against the checked-in fingerprint.
func simGate(meter *calib.Meter, size simSize, atNproc []simDay) (serial []simDay, build simBuild, err error) {
	build, serial, _, err = simPass(meter, size.machines, 1, size.gateDays)
	if err != nil {
		return nil, simBuild{}, err
	}
	got, want := fingerprintDays(atNproc[:size.gateDays]), fingerprintDays(serial)
	if got != want {
		return nil, simBuild{}, fmt.Errorf("DayStats differ between parallelism %d and 1 over the first %d days (fingerprints %#x, %#x)",
			runtime.NumCPU(), size.gateDays, got, want)
	}
	if got != size.fingerprint {
		return nil, simBuild{}, fmt.Errorf("DayStats fingerprint of the first %d days is %#x, the checked-in one is %#x: simulated behaviour changed",
			size.gateDays, got, size.fingerprint)
	}
	return serial, build, nil
}

func runSimYear(e env) (*result, error) {
	size := simFull
	// Three simulated days per second of window is what the reference box
	// sustains over three passes; the work is fixed by -seconds, not by how
	// fast this commit happens to be, so two commits simulate the same days.
	days := max(size.gateDays, int(3*e.seconds))
	if e.quick {
		size, days = simQuick, simQuick.gateDays
	}
	if e.traced {
		return simTraced(e, size, days)
	}
	nproc := runtime.NumCPU()
	res := newResult()
	meter := calib.New()
	began := time.Now()
	var builds []simBuild
	passes := make([][]simDay, size.passes)
	for p := range passes {
		build, out, _, err := simPass(meter, size.machines, nproc, days)
		if err != nil {
			return nil, err
		}
		builds = append(builds, build)
		passes[p] = out
		if fingerprintDays(out) != fingerprintDays(passes[0]) {
			return nil, fmt.Errorf("pass %d simulated different DayStats than pass 0 from the same config", p)
		}
		res.attempted += int64(days)
	}
	_, gateBuild, err := simGate(meter, size, passes[0])
	if err != nil {
		return nil, err
	}
	builds = append(builds, gateBuild)
	if err := checkNonDegenerate(passes[0], size.minActive); err != nil {
		return nil, err
	}
	// The passes built four fleets; a few more make the set-up median firm.
	for len(builds) < simBuilds && !e.quick {
		build, _, _, err := simPass(meter, size.machines, nproc, 0)
		if err != nil {
			return nil, err
		}
		builds = append(builds, build)
	}

	// A day's cost is its median over the passes, in reference time: the
	// passes simulate the same days seconds apart, so what the correction
	// missed of a burst of host noise inflates one sample of a day, not all
	// of them.
	var total, wallTotal time.Duration
	var steps hist.H
	for d := 0; d < days; d++ {
		ref, wall := make([]time.Duration, len(passes)), make([]time.Duration, len(passes))
		for p := range passes {
			ref[p], wall[p] = passes[p][d].ref, passes[p][d].took
		}
		m := medianDuration(ref)
		total += m
		wallTotal += medianDuration(wall)
		steps.Record(uint64(m))
	}
	var refBuilds, wallBuilds []time.Duration
	for _, b := range builds {
		refBuilds, wallBuilds = append(refBuilds, b.ref), append(wallBuilds, b.wall)
	}
	res.set("setup_s", medianDuration(refBuilds).Seconds())
	res.set("work_per_s", float64(days)/total.Seconds())
	// The days are of two kinds, ~15 ms without a confession screen and
	// ~300 ms with, 26 and 19 of them in 45: the median day sits at the edge
	// of the first kind and moved 20-36 % between identical runs. The
	// latency of a Step is therefore its mean.
	res.set("latency_p50_us", total.Seconds()*1e6/float64(days))
	res.show("host speed", meter.MeanSpeed(began, time.Now()), "ratio", "over the run, stalls included; 1.0 is the quiet reference box")
	res.show("sim_days_per_s (wall clock)", float64(days)/wallTotal.Seconds(), "1/s",
		fmt.Sprintf("%d machines x 32 cores, days 0-%d, parallelism %d, per-day median of %d passes", size.machines, days-1, nproc, len(passes)))
	res.showTiming("fleet.step (reference time)", &steps, "ms")
	res.show("set-up (wall clock)", medianDuration(wallBuilds).Seconds(), "s", fmt.Sprintf("median of %d fleet builds", len(builds)))
	return res, nil
}

// simTraced steps an untraced and a traced runner through the same days in
// lockstep, so that the cost of the telemetry is the ratio of two sums
// taken over the same seconds of host time.
func simTraced(e env, size simSize, days int) (*result, error) {
	nproc := runtime.NumCPU()
	res := newResult()
	res.spans = newRecorder()
	meter := calib.New()
	began := time.Now()
	reg := obs.NewRegistry()
	plainR, err := fleet.NewRunner(simConfig(size.machines), fleet.WithParallelism(nproc))
	if err != nil {
		return nil, err
	}
	tracedR, err := fleet.NewRunner(simConfig(size.machines), fleet.WithParallelism(nproc),
		fleet.WithMetrics(reg), fleet.WithTrace(obs.NewTrace()))
	if err != nil {
		return nil, err
	}
	plain, traced := make([]simDay, days), make([]simDay, days)
	var mallocs, allocBytes uint64
	var before, after runtime.MemStats
	stepTraced := func(d int) {
		runtime.ReadMemStats(&before)
		t := time.Now()
		traced[d].stats = tracedR.Step()
		end := time.Now()
		runtime.ReadMemStats(&after)
		traced[d].took = end.Sub(t)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		res.spans.add("fleet.step", 0, uint64(d)+1, t, end)
	}
	for d := 0; d < days; d++ {
		// Alternate who goes first so neither always runs on a warm cache.
		if d%2 == 0 {
			stepTraced(d)
		}
		t := time.Now()
		plain[d].stats = plainR.Step()
		plain[d].took = time.Since(t)
		if d%2 == 1 {
			stepTraced(d)
		}
		meter.SampleN(simUnitsAfter(plain[d].took))
	}
	res.set("host.speed", meter.Speed(began, time.Now()))
	res.set("fleet.days_per_s", float64(days)/sumTook(plain).Seconds())
	res.attempted = int64(2 * days)
	if fingerprintDays(plain) != fingerprintDays(traced) {
		return nil, fmt.Errorf("attaching metrics and a trace changed the simulated DayStats")
	}
	serial, _, err := simGate(meter, size, plain)
	if err != nil {
		return nil, err
	}
	if err := checkNonDegenerate(plain, size.minActive); err != nil {
		return nil, err
	}

	var phaseSum float64
	for _, s := range reg.Snapshot() {
		switch {
		case s.Name == "fleet_phase_seconds":
			for _, l := range s.Labels {
				if l.Key == "phase" {
					res.set("fleet.phase_"+l.Value+"_s", s.Sum)
					phaseSum += s.Sum
				}
			}
		case s.Name == "screen_sessions_total":
			res.set("screen.sessions", s.Value)
		case s.Name == "screen_ops_total":
			res.set("screen.ops", s.Value)
		case s.Name == "quarantine_isolated_total":
			res.values["quarantine.isolated"] += s.Value
		}
	}
	stepTotal := sumTook(traced).Seconds()
	if off := (stepTotal - phaseSum) / stepTotal; off < -0.05 || off > 0.05 {
		return nil, fmt.Errorf("fleet phases sum to %.3f s but the traced Steps took %.3f s: the phase histograms no longer cover the day", phaseSum, stepTotal)
	}
	var steps hist.H
	for d := range traced {
		steps.Record(uint64(traced[d].took))
	}
	corruptions, quarantines, active := simTotals(traced)
	res.set("fleet.step_total_s", stepTotal)
	res.set("fleet.step_p50_ms", steps.Quantile(0.5)/1e6)
	res.set("fleet.step_max_ms", float64(steps.Max())/1e6)
	res.set("fleet.allocs_per_day", float64(mallocs)/float64(days))
	res.set("fleet.alloc_kb_per_day", float64(allocBytes)/1024/float64(days))
	res.set("fleet.par_speedup", sumTook(serial).Seconds()/sumTook(plain[:size.gateDays]).Seconds())
	res.set("fleet.corruptions", float64(corruptions))
	res.set("fleet.quarantines", float64(quarantines))
	res.set("fleet.active_sites_min", float64(active))
	res.set("obs.trace_overhead_ratio", sumTook(plain).Seconds()/stepTotal)
	res.showTiming("fleet.step (traced)", &steps, "ms")

	healthy, defective := confessProbe(plainR, e.quick)
	res.set("screen.confess_healthy_ms", healthy)
	res.set("screen.confess_defective_ms", defective)
	return res, nil
}

// confessProbe times screen.Screen under the fleet's confession config on
// a healthy core (what every false accusation would cost if the fleet did
// not skip it) and on the fleet's own defect sites (what the suspects
// phase pays for every nominated core, every day, until it confesses).
func confessProbe(r *fleet.Runner, quick bool) (healthyMs, defectiveMs float64) {
	cfg := r.Fleet().Config().ConfessionConfig
	reps, sites := 3, 5
	if quick {
		cfg.MaxOps, reps, sites = 200_000, 1, 2
	}
	var healthy, defective []time.Duration
	for i := 0; i < reps; i++ {
		rng := xrand.New(uint64(100 + i))
		core := fault.NewCore(fmt.Sprintf("probe/healthy%d", i), rng)
		t := time.Now()
		screen.Screen(core, cfg, rng)
		healthy = append(healthy, time.Since(t))
	}
	for i, site := range r.Fleet().Defects() {
		if len(defective) == sites {
			break
		}
		if !site.Site.Mercurial() {
			continue
		}
		t := time.Now()
		screen.Screen(site.Site, cfg, xrand.New(uint64(200+i)))
		defective = append(defective, time.Since(t))
	}
	if len(defective) == 0 {
		return medianDuration(healthy).Seconds() * 1e3, 0
	}
	return medianDuration(healthy).Seconds() * 1e3, medianDuration(defective).Seconds() * 1e3
}
