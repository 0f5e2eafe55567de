// Package detect implements the §6 signal pipeline for identifying
// mercurial-core suspects: aggregating crash, machine-check, sanitizer,
// application-error, and user reports; testing whether reports concentrate
// on a few cores (a CEE signature) or spread evenly (a software-bug
// signature); tracking recidivism; and extracting "confessions" from
// suspects via deep screening.
//
// Concurrency model: Tracker is a deliberately lock-free single-writer
// structure. Concurrent producers (parallel fleet shards, HTTP handlers)
// must not call Add directly; they buffer []Signal privately and hand the
// buffers to one merging goroutine — report.Server wraps exactly that
// single-writer merge behind a mutex, and the fleet simulator merges its
// per-shard buffers in deterministic shard order. Suspect nomination is
// insensitive to signal order within a day (counts, first/last-time
// bounds, and the concentration statistic are all multiset functions), so
// an ordered merge of per-shard buffers is bit-identical to a serial run.
package detect

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/screen"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// SignalKind enumerates the automatable CEE signals of §6.
type SignalKind int

const (
	// SigCrash is a user-process or kernel crash attributed to a core.
	SigCrash SignalKind = iota
	// SigMCE is a machine-check event.
	SigMCE
	// SigSanitizer is a code-sanitizer report (e.g. ASan-style memory
	// corruption on a healthy-looking program).
	SigSanitizer
	// SigAppError is an application-level self-check failure (checksum
	// mismatch, replica divergence) reported via the RPC service.
	SigAppError
	// SigScreenFail is a screening-corpus failure.
	SigScreenFail
	// SigUserReport is a human-filed suspicion from incident triage.
	SigUserReport
)

var signalNames = [...]string{"crash", "mce", "sanitizer", "app-error", "screen-fail", "user-report"}

func (k SignalKind) String() string {
	if k < 0 || int(k) >= len(signalNames) {
		return fmt.Sprintf("SignalKind(%d)", int(k))
	}
	return signalNames[k]
}

// Signal is one suspect-core report.
type Signal struct {
	Machine string
	// Core is the core index within the machine, or -1 when the signal
	// could not be attributed below machine granularity.
	Core int
	Kind SignalKind
	Time simtime.Time
	// Detail carries free-form triage context.
	Detail string
}

// Suspect is a core the tracker believes may be mercurial.
type Suspect struct {
	Machine string
	Core    int
	// Reports is the number of core-attributed signals.
	Reports int
	// PValue is the concentration test result: the probability of
	// seeing this core's report count under the uniform (software-bug)
	// hypothesis. Small = suspicious.
	PValue float64
	// Gini is the machine-level report concentration.
	Gini float64
	// Kinds tallies signals by kind.
	Kinds map[SignalKind]int
	// First and Last bound the report window (recidivism over time).
	First, Last simtime.Time
}

// Score orders suspects: more reports and a smaller p-value rank higher.
func (s *Suspect) Score() float64 {
	p := s.PValue
	if p < 1e-300 {
		p = 1e-300
	}
	return float64(s.Reports) * -math.Log10(p)
}

// Tracker aggregates signals and nominates suspects. It implements the §6
// policy: "Reports that are evenly spread across cores probably are not
// CEEs; reports from multiple applications that appear to be concentrated
// on a few cores might well be CEEs."
type Tracker struct {
	// CoresPerMachine is needed to form the per-core histogram
	// (including zero-report cores) for the concentration test.
	CoresPerMachine int
	// Alpha is the concentration-test significance threshold.
	Alpha float64
	// MinReports is the recidivism floor: a single report never
	// nominates a suspect.
	MinReports int

	perCore    map[string]map[int]*coreStats
	perMachine map[string]int // machine-level (core == -1) signal counts
	// refused counts signals Add ignored because their core lies outside
	// [-1, CoresPerMachine): a core the machine does not have.
	refused int
	// reporters records every machine that has ever submitted a signal —
	// including machines whose reports never concentrated into a
	// nomination. Forget deliberately leaves it alone: it is a lifetime
	// census (bounded by fleet size), not live tracker state, and it is
	// what /v1/stats reports as "machines".
	reporters map[string]bool
}

type coreStats struct {
	count       int
	kinds       map[SignalKind]int
	first, last simtime.Time
}

// NewTracker returns a tracker with the given machine shape and the
// default policy (alpha = 0.001, at least 2 reports).
func NewTracker(coresPerMachine int) *Tracker {
	return &Tracker{
		CoresPerMachine: coresPerMachine,
		Alpha:           0.001,
		MinReports:      2,
		perCore:         map[string]map[int]*coreStats{},
		perMachine:      map[string]int{},
		reporters:       map[string]bool{},
	}
}

// Add ingests one signal. A signal naming a core outside
// [-1, CoresPerMachine) is counted as refused and otherwise ignored:
// clamping it would pin the reports on a core that never sent them.
func (t *Tracker) Add(s Signal) {
	if s.Core < -1 || s.Core >= t.CoresPerMachine {
		t.refused++
		return
	}
	t.reporters[s.Machine] = true
	if s.Core < 0 {
		t.perMachine[s.Machine]++
		return
	}
	m := t.perCore[s.Machine]
	if m == nil {
		m = map[int]*coreStats{}
		t.perCore[s.Machine] = m
	}
	cs := m[s.Core]
	if cs == nil {
		cs = &coreStats{kinds: map[SignalKind]int{}, first: s.Time}
		m[s.Core] = cs
	}
	cs.count++
	cs.kinds[s.Kind]++
	if s.Time < cs.first {
		cs.first = s.Time
	}
	if s.Time > cs.last {
		cs.last = s.Time
	}
}

// AddBatch ingests a buffer of signals in order — the single-writer merge
// step for concurrent producers that accumulated signals privately.
func (t *Tracker) AddBatch(sigs []Signal) {
	for _, s := range sigs {
		t.Add(s)
	}
}

// Forget drops all state for a machine — called after the machine is
// drained, repaired, or replaced, so stale reports cannot re-nominate a
// core that no longer exists (and the tracker's memory stays bounded by
// the live fleet).
func (t *Tracker) Forget(machine string) {
	delete(t.perCore, machine)
	delete(t.perMachine, machine)
}

// ForgetCore drops state for one core — called after the core is
// quarantined, so its historical reports stop dominating the machine's
// concentration statistics.
func (t *Tracker) ForgetCore(machine string, core int) {
	if m := t.perCore[machine]; m != nil {
		delete(m, core)
		if len(m) == 0 {
			delete(t.perCore, machine)
		}
	}
}

// ReportingMachines returns the number of distinct machines that have
// ever submitted a signal — a lifetime census that, unlike the suspect
// list, also counts machines whose reports never produced a nomination.
// Forget does not shrink it.
func (t *Tracker) ReportingMachines() int { return len(t.reporters) }

// Reports returns the total core-attributed signal count for a machine.
func (t *Tracker) Reports(machine string) int {
	total := 0
	for _, cs := range t.perCore[machine] {
		total += cs.count
	}
	return total
}

// Suspects evaluates every machine and returns the cores whose report
// concentration beats the tracker's policy, ranked by Score (highest
// first). Ties break deterministically by (machine, core).
func (t *Tracker) Suspects() []Suspect {
	var out []Suspect
	machines := make([]string, 0, len(t.perCore))
	for m := range t.perCore {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	for _, machine := range machines {
		cores := t.perCore[machine]
		counts := make([]int, t.CoresPerMachine)
		gvals := make([]float64, t.CoresPerMachine)
		for idx, cs := range cores {
			counts[idx] = cs.count
			gvals[idx] = float64(cs.count)
		}
		gini := stats.Gini(gvals)
		for idx, cs := range cores {
			if cs.count < t.MinReports {
				continue
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			p := stats.BinomialTailAtLeast(total, 1/float64(t.CoresPerMachine), cs.count)
			p *= float64(t.CoresPerMachine) // Bonferroni over cores
			if p > 1 {
				p = 1
			}
			if p > t.Alpha {
				continue
			}
			out = append(out, Suspect{
				Machine: machine,
				Core:    idx,
				Reports: cs.count,
				PValue:  p,
				Gini:    gini,
				Kinds:   copyKinds(cs.kinds),
				First:   cs.first,
				Last:    cs.last,
			})
		}
	}
	sortSuspects(out)
	return out
}

// sortSuspects orders suspects by Score (highest first), ties broken
// deterministically by (machine, core) — the ranking contract shared by
// Tracker and ShardedTracker.
func sortSuspects(out []Suspect) {
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Score(), out[j].Score()
		if si != sj {
			return si > sj
		}
		if out[i].Machine != out[j].Machine {
			return out[i].Machine < out[j].Machine
		}
		return out[i].Core < out[j].Core
	})
}

func copyKinds(in map[SignalKind]int) map[SignalKind]int {
	out := make(map[SignalKind]int, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// Confession is the result of deep-screening a suspect: §6's "we must
// extract confessions via further testing".
type Confession struct {
	CoreID string
	// Confirmed is true if the deep screen reproduced a failure.
	Confirmed bool
	// Report is the underlying screening report.
	Report screen.Report
}

// Confess runs a deep screen against the physical core behind a suspect.
// In production this is the expensive, offline step; in the simulator the
// caller supplies the fault.Core under suspicion.
func Confess(core *fault.Core, cfg screen.Config, rng *xrand.RNG) Confession {
	rep := screen.Screen(core, cfg, rng)
	return Confession{CoreID: core.ID, Confirmed: rep.Detected, Report: rep}
}
