package fleet

import (
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// The CEE lifecycle trace answers §4's open question — "what happened
// between defect activation and quarantine" — while a run is in flight.
// Every emission below happens in a serial phase of the day (planning,
// merge, noise, triage, suspect processing, repairs), so the stream
// order is deterministic and bit-identical at any worker count. All
// helpers are no-ops when no trace is attached.

// traceDefects emits the ground-truth side of the stream: the defect
// population on day 0 and each defect's activation on the day its install
// age crosses onset. Activation is emitted for every site regardless of
// quarantine state — ground truth does not stop because the core was
// isolated — which is what lets metrics.DetectionFromTrace reproduce the
// ground-truth PastOnset count exactly.
func (f *Fleet) traceDefects(day int, now simtime.Time) {
	if f.trace == nil {
		return
	}
	if day == 0 {
		for _, site := range f.defects {
			f.trace.Emit(obs.TraceEvent{
				Day: 0, Machine: site.Machine, Core: site.Core,
				Event:          obs.EventDefectPresent,
				FirstActiveSec: float64(site.FirstActive),
			})
		}
	}
	for _, site := range f.defects {
		// "<= now+Day" means "activates during today": a run of D days
		// traces exactly the defects with FirstActive <= D*Day, matching
		// the ground-truth PastOnset predicate.
		if site.activationTraced || site.FirstActive > now+simtime.Day {
			continue
		}
		site.activationTraced = true
		f.trace.Emit(obs.TraceEvent{
			Day: day, TimeSec: float64(site.FirstActive),
			Machine: site.Machine, Core: site.Core,
			Event:          obs.EventDefectActivated,
			FirstActiveSec: float64(site.FirstActive),
		})
	}
}

// traceFirstSignals emits the first core-attributed signal seen for each
// core in a merged buffer. Machine-level (core == -1) signals never open a
// core's stream.
func (f *Fleet) traceFirstSignals(sigs []detect.Signal) {
	if f.trace == nil {
		return
	}
	for _, sig := range sigs {
		ref := sched.CoreRef{Machine: sig.Machine, Core: sig.Core}
		if sig.Core < 0 || f.sigSeen[ref] {
			continue
		}
		f.sigSeen[ref] = true
		f.trace.Emit(obs.TraceEvent{
			Day: f.day - 1, TimeSec: float64(sig.Time),
			Machine: sig.Machine, Core: sig.Core,
			Event: obs.EventFirstSignal, Kind: sig.Kind.String(),
		})
	}
}

// traceNominations emits each core's first concentration-test nomination.
func (f *Fleet) traceNominations(suspects []detect.Suspect, now simtime.Time) {
	if f.trace == nil {
		return
	}
	for _, s := range suspects {
		ref := sched.CoreRef{Machine: s.Machine, Core: s.Core}
		if f.nominated[ref] {
			continue
		}
		f.nominated[ref] = true
		f.trace.Emit(obs.TraceEvent{
			Day: f.day - 1, TimeSec: float64(now),
			Machine: s.Machine, Core: s.Core,
			Event: obs.EventSuspectNominated, Reports: s.Reports, PValue: s.PValue,
		})
	}
}

// traceConfession emits one deep-screen outcome; source is "triage" for
// human investigations and "suspect" for quarantine-gate confessions.
func (f *Fleet) traceConfession(machine string, core int, confirmed bool, source string, now simtime.Time) {
	if f.trace == nil {
		return
	}
	f.trace.Emit(obs.TraceEvent{
		Day: f.day - 1, TimeSec: float64(now),
		Machine: machine, Core: core,
		Event: obs.EventConfession, Confirmed: confirmed, Detail: source,
	})
}

// traceQuarantine emits an isolation decision.
func (f *Fleet) traceQuarantine(machine string, core int, mode string, now simtime.Time) {
	if f.trace == nil {
		return
	}
	f.trace.Emit(obs.TraceEvent{
		Day: f.day - 1, TimeSec: float64(now),
		Machine: machine, Core: core,
		Event: obs.EventQuarantine, Mode: mode,
	})
}

// traceRelease emits the removal of a live isolation record (mirroring
// quarantine.Manager.Release), and traceRepair the return of repaired
// silicon to service (Core == -1 for a whole-machine undrain). Repair
// also resets the core's first-signal/nomination dedup: replacement
// silicon starts a fresh lifecycle stream.
func (f *Fleet) traceRelease(ref sched.CoreRef, day int) {
	if f.trace == nil {
		return
	}
	f.trace.Emit(obs.TraceEvent{
		Day: day, TimeSec: float64(simtime.Time(day) * simtime.Day),
		Machine: ref.Machine, Core: ref.Core, Event: obs.EventRelease,
	})
}

func (f *Fleet) traceRepair(machine string, core int, day int) {
	if f.trace == nil {
		return
	}
	if core >= 0 {
		delete(f.sigSeen, sched.CoreRef{Machine: machine, Core: core})
		delete(f.nominated, sched.CoreRef{Machine: machine, Core: core})
	}
	f.trace.Emit(obs.TraceEvent{
		Day: day, TimeSec: float64(simtime.Time(day) * simtime.Day),
		Machine: machine, Core: core, Event: obs.EventRepair,
	})
}

// phaseClock times the day's phases into the metrics registry; a nil
// clock (metrics off) records nothing and costs two branches per phase.
type phaseClock struct {
	reg  *obs.Registry
	last time.Time
}

func (f *Fleet) newPhaseClock() *phaseClock {
	if f.obs == nil {
		return nil
	}
	return &phaseClock{reg: f.obs, last: time.Now()}
}

// mark closes the current phase, attributing the wall time since the
// previous mark to it.
func (p *phaseClock) mark(phase string) {
	if p == nil {
		return
	}
	now := time.Now()
	p.reg.Histogram("fleet_phase_seconds", obs.L("phase", phase)).
		Observe(now.Sub(p.last).Seconds())
	p.last = now
}
