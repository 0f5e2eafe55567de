package metrics

import (
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// DetectionFromTrace reconstructs the detection report purely from a CEE
// lifecycle trace — no access to the fleet's ground-truth structures. It
// is the observability counterpart of Detection: the trace carries the
// defect census (defect-present events), the quarantine ledger
// (quarantine/release events), and the activation times needed for
// latency, so a JSONL trace written by one process can be audited by
// another. For a trace produced by a complete run of runDays days, the
// result is bit-identical to Detection on the live fleet — including the
// float64 latency values — which the fleet tests cross-check at multiple
// worker counts. A trace with no defect-present events is a defect-free
// fleet's: its census is zero and every quarantine a false positive.
func DetectionFromTrace(events []obs.TraceEvent, runDays int) DetectionReport {
	rep := DetectionReport{}
	now := float64(simtime.Time(runDays) * simtime.Day)

	// Ground-truth census. The truth map mirrors Detection's: keyed by
	// core, holding the defect's activation time in seconds.
	truth := map[sched.CoreRef]float64{}
	// Live quarantine ledger, replayed the way quarantine.Manager maintains
	// it: Handle appends, Release removes, surviving entries keep insertion
	// order.
	type quar struct {
		ref sched.CoreRef
		day int
	}
	var ledger []quar

	for _, ev := range events {
		ref := sched.CoreRef{Machine: ev.Machine, Core: ev.Core}
		switch ev.Event {
		case obs.EventDefectPresent:
			rep.TotalDefective++
			truth[ref] = ev.FirstActiveSec
			if ev.FirstActiveSec <= now {
				rep.PastOnset++
			}
		case obs.EventQuarantine:
			ledger = append(ledger, quar{ref: ref, day: ev.Day})
		case obs.EventRelease:
			for i := range ledger {
				if ledger[i].ref == ref {
					ledger = append(ledger[:i], ledger[i+1:]...)
					break
				}
			}
		}
	}
	for _, q := range ledger {
		rep.Quarantined++
		firstActiveSec, ok := truth[q.ref]
		if !ok {
			rep.FalsePositive++
			continue
		}
		rep.TruePositive++
		// Same float64 expression as Detection: quarantine day minus
		// activation day (simtime.Time.Days divides by the same constant),
		// clamped at zero for defects quarantined before onset.
		latency := float64(q.day) - firstActiveSec/float64(simtime.Day)
		if latency < 0 {
			latency = 0
		}
		rep.LatencyDays = append(rep.LatencyDays, latency)
	}
	return rep
}
