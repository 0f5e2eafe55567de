// Package metrics computes the §4 reliability metrics the paper says are
// needed but hard to define: the fraction of cores exhibiting CEEs (and
// its dependence on test coverage) and detection latency.
package metrics

import (
	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// DetectionReport summarizes ground truth vs the quarantine ledger after a
// fleet run.
type DetectionReport struct {
	// TotalDefective is the number of defective cores in the fleet.
	TotalDefective int
	// PastOnset is the number of defective cores whose defect had
	// become active by the end of the run.
	PastOnset int
	// Quarantined is the number of isolation records.
	Quarantined int
	// TruePositive / FalsePositive split quarantines by ground truth.
	TruePositive, FalsePositive int
	// LatencyDays holds, for each true positive, the days between the
	// defect becoming active and its quarantine.
	LatencyDays []float64
}

// DetectedFraction returns TruePositive / PastOnset (the §4 "fraction of
// cores that exhibit CEEs" a detector can claim to measure), or 0.
func (r DetectionReport) DetectedFraction() float64 {
	if r.PastOnset == 0 {
		return 0
	}
	return float64(r.TruePositive) / float64(r.PastOnset)
}

// MeanLatencyDays returns the mean detection latency, or 0.
func (r DetectionReport) MeanLatencyDays() float64 {
	var s stats.Summary
	for _, l := range r.LatencyDays {
		s.Add(l)
	}
	return s.Mean()
}

// Detection computes the report for a fleet after Run, with the run length
// in days (to evaluate onset).
func Detection(f *fleet.Fleet, runDays int) DetectionReport {
	rep := DetectionReport{}
	now := simtime.Time(runDays) * simtime.Day
	truth := map[sched.CoreRef]*fleet.DefectSite{}
	for _, d := range f.Defects() {
		rep.TotalDefective++
		ref := sched.CoreRef{Machine: d.Machine, Core: d.Core}
		truth[ref] = d
		if d.FirstActive <= now {
			rep.PastOnset++
		}
	}
	for _, rec := range f.Manager().Records() {
		rep.Quarantined++
		site, ok := truth[rec.Ref]
		if !ok {
			rep.FalsePositive++
			continue
		}
		rep.TruePositive++
		latency := rec.When.Days() - site.FirstActive.Days()
		if latency < 0 {
			latency = 0
		}
		rep.LatencyDays = append(rep.LatencyDays, latency)
	}
	return rep
}

// CoveragePoint is one point of the E12 curve: detected fraction as a
// function of the screening corpus size (§4: the fraction-of-cores metric
// "depends on test coverage").
type CoveragePoint struct {
	Workloads        int
	DetectedFraction float64
	Quarantined      int
}

// CoverageCurve runs an independent fleet per corpus size and reports the
// detected fraction each achieves. Fleets share the base config (and
// therefore the same defect population, since the population derives from
// the seed). The restriction applies to confession screens too: a defect
// class with no test yet is a "zero-day" CEE that cannot be confirmed
// (§4's point).
func CoverageCurve(base fleet.Config, corpusSizes []int, days int) ([]CoveragePoint, error) {
	all := corpus.All()
	out := make([]CoveragePoint, 0, len(corpusSizes))
	for _, n := range corpusSizes {
		cfg := base
		cfg.InitialCorpus = n
		cfg.CorpusGrowEveryDays = 0
		if n <= len(all) {
			cfg.ConfessionConfig.Workloads = all[:n]
		}
		r, err := fleet.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		r.Run(days)
		rep := Detection(r.Fleet(), days)
		out = append(out, CoveragePoint{
			Workloads:        n,
			DetectedFraction: rep.DetectedFraction(),
			Quarantined:      rep.Quarantined,
		})
	}
	return out, nil
}
