// Package quarantine implements the isolation side of §6.1: once a core is
// suspected (and optionally confirmed via a confession screen), remove it
// from service — by draining the whole machine, by core surprise removal
// (after Shalev et al.'s CSR), or by restricting the core to tasks that
// avoid the defective execution unit.
//
// The three modes trade stranded capacity against risk; experiment E6
// measures that trade-off.
package quarantine

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/screen"
	"repro/internal/simtime"
)

// Mode selects the isolation mechanism.
type Mode int

const (
	// MachineDrain removes the whole machine from the pool — simple and
	// coarse ("relatively simple for existing scheduling mechanisms").
	MachineDrain Mode = iota
	// CoreRemoval takes just the suspect core offline (CSR).
	CoreRemoval
	// SafeTasks keeps the core in service for tasks that avoid its
	// defective units — the speculative policy §6.1 floats.
	SafeTasks
)

func (m Mode) String() string {
	switch m {
	case MachineDrain:
		return "machine-drain"
	case CoreRemoval:
		return "core-removal"
	case SafeTasks:
		return "safe-tasks"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Policy configures the manager.
type Policy struct {
	Mode Mode
	// MinScore gates action on the suspect's detection score.
	MinScore float64
	// RequireConfession runs the deep screen before isolating; this
	// bounds false-positive capacity loss at the price of screening
	// cost and delay (§6's trade-off).
	RequireConfession bool
	// ConfessionConfig is the screen used for confessions; zero value
	// means screen.Deep().
	ConfessionConfig screen.Config
	// DeclineRetry is how long a declined suspect is left alone before
	// it may be re-examined. Zero means declined suspects are never
	// automatically retried (new evidence accumulates in the tracker
	// regardless).
	DeclineRetry simtime.Time
}

// Record is one isolation decision.
type Record struct {
	Ref       sched.CoreRef
	Suspect   detect.Suspect
	Mode      Mode
	When      simtime.Time
	Confessed bool
	// BannedUnits is populated in SafeTasks mode.
	BannedUnits []fault.Unit
	// EvictedTasks counts tasks displaced by the action.
	EvictedTasks int
	// ReplacedTasks counts evictions successfully re-placed elsewhere.
	ReplacedTasks int
}

// Manager applies isolation policy to suspects. It is a single-writer
// structure: Handle/Release mutate it and must be called from one
// goroutine at a time. The expensive part of handling — the confession
// screen — can be computed outside the manager (see NeedsConfession and
// ConfessionScreenConfig) and passed in through Handle's confess callback,
// which is how the fleet simulator runs confessions in parallel while
// keeping isolation decisions serial and deterministic.
type Manager struct {
	Cluster *sched.Cluster
	Policy  Policy
	// Metrics, when set, counts every ledger transition (isolations by
	// mode, declines by reason, releases). Nil records nothing.
	Metrics *obs.Registry
	// records, keyed by core, prevents double-isolating.
	records map[sched.CoreRef]*Record
	// ledger remembers isolation order, so Records is deterministic (map
	// iteration is not) — the quarantine ledger the determinism tests
	// compare across worker counts.
	ledger []sched.CoreRef
	// declinedAt remembers when a suspect was last declined, to avoid
	// re-running expensive confessions on every evaluation cycle.
	declinedAt map[sched.CoreRef]simtime.Time
	// Declined counts suspects skipped (below score, failed confession).
	Declined int
}

// NewManager returns a manager operating on the cluster.
func NewManager(cluster *sched.Cluster, policy Policy) *Manager {
	return &Manager{
		Cluster:    cluster,
		Policy:     policy,
		records:    map[sched.CoreRef]*Record{},
		declinedAt: map[sched.CoreRef]simtime.Time{},
	}
}

// Isolated reports whether the core has already been isolated.
func (m *Manager) Isolated(ref sched.CoreRef) bool {
	_, ok := m.records[ref]
	return ok
}

// Release clears the isolation record for a core — called when the
// hardware has been repaired or replaced, so a fresh defect on the same
// slot can be quarantined again. It also clears any decline cool-down.
func (m *Manager) Release(ref sched.CoreRef) {
	if _, ok := m.records[ref]; ok {
		m.Metrics.Counter("quarantine_released_total").Inc()
	}
	delete(m.records, ref)
	delete(m.declinedAt, ref)
	for i, r := range m.ledger {
		if r == ref {
			m.ledger = append(m.ledger[:i], m.ledger[i+1:]...)
			break
		}
	}
}

// Records returns the live isolation records in isolation order — a
// deterministic ledger. Released (repaired) cores are omitted.
func (m *Manager) Records() []*Record {
	out := make([]*Record, 0, len(m.records))
	for _, ref := range m.ledger {
		if r, ok := m.records[ref]; ok {
			out = append(out, r)
		}
	}
	return out
}

// NeedsConfession reports whether Handle, called now for this suspect,
// would run a confession screen: the policy demands one, the core is not
// already isolated, no decline cool-down is active, and the score clears
// the policy floor. Batch drivers use this to precompute confessions in
// parallel before applying decisions serially.
func (m *Manager) NeedsConfession(s detect.Suspect, now simtime.Time) bool {
	if !m.Policy.RequireConfession && m.Policy.Mode != SafeTasks {
		return false
	}
	ref := sched.CoreRef{Machine: s.Machine, Core: s.Core}
	if m.Isolated(ref) {
		return false
	}
	if when, ok := m.declinedAt[ref]; ok {
		if m.Policy.DeclineRetry == 0 || now-when < m.Policy.DeclineRetry {
			return false
		}
	}
	return s.Score() >= m.Policy.MinScore
}

// ConfessionScreenConfig returns the exact screening configuration Handle
// passes to its confess callback, so precomputed confessions match lazy
// ones bit for bit.
func (m *Manager) ConfessionScreenConfig() screen.Config {
	cfg := m.Policy.ConfessionConfig
	if cfg.Passes == 0 {
		cfg = screen.Deep()
	}
	// SafeTasks needs the full defect picture, not the first hit.
	if m.Policy.Mode == SafeTasks {
		cfg.StopOnDetect = false
	}
	// Confession screens report through the manager's registry unless the
	// policy already routed them somewhere.
	if cfg.Metrics == nil {
		cfg.Metrics = m.Metrics
	}
	return cfg
}

// BannedUnits derives the execution units implicated by a screening
// report: the union of the units exercised by every failing workload.
// This is what SafeTasks mode bans on the restricted core.
func BannedUnits(rep screen.Report) []fault.Unit {
	seen := map[fault.Unit]bool{}
	var out []fault.Unit
	for _, det := range rep.Detections {
		w, err := corpus.ByName(det.Result.Workload)
		if err != nil {
			continue
		}
		for _, u := range w.Units() {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// Handle processes one suspect. confess supplies the deep-screen result on
// demand (the fleet simulator binds it to the physical core). It returns
// the isolation record, or nil if the suspect was declined.
func (m *Manager) Handle(s detect.Suspect, now simtime.Time, confess func(screen.Config) detect.Confession) (*Record, error) {
	ref := sched.CoreRef{Machine: s.Machine, Core: s.Core}
	if m.Isolated(ref) {
		return nil, nil
	}
	if when, ok := m.declinedAt[ref]; ok {
		if m.Policy.DeclineRetry == 0 || now-when < m.Policy.DeclineRetry {
			return nil, nil
		}
		delete(m.declinedAt, ref)
	}
	if s.Score() < m.Policy.MinScore {
		m.Declined++
		m.declinedAt[ref] = now
		m.Metrics.Counter("quarantine_declined_total", obs.L("reason", "score")).Inc()
		return nil, nil
	}
	rec := &Record{Ref: ref, Suspect: s, Mode: m.Policy.Mode, When: now}
	var conf detect.Confession
	if m.Policy.RequireConfession || m.Policy.Mode == SafeTasks {
		conf = confess(m.ConfessionScreenConfig())
		rec.Confessed = conf.Confirmed
		if m.Policy.RequireConfession && !conf.Confirmed {
			m.Declined++
			m.declinedAt[ref] = now
			m.Metrics.Counter("quarantine_declined_total", obs.L("reason", "confession")).Inc()
			return nil, nil
		}
	}

	var evicted []*sched.Task
	switch m.Policy.Mode {
	case MachineDrain:
		ts, err := m.Cluster.Drain(s.Machine)
		if err != nil {
			return nil, err
		}
		evicted = ts
	case CoreRemoval:
		t, err := m.Cluster.SetCoreState(ref, sched.CoreOffline, nil)
		if err != nil {
			return nil, err
		}
		if t != nil {
			evicted = append(evicted, t)
		}
	case SafeTasks:
		banned := BannedUnits(conf.Report)
		if len(banned) == 0 {
			// No unit attribution: fall back to full removal.
			t, err := m.Cluster.SetCoreState(ref, sched.CoreOffline, nil)
			if err != nil {
				return nil, err
			}
			if t != nil {
				evicted = append(evicted, t)
			}
		} else {
			rec.BannedUnits = banned
			t, err := m.Cluster.SetCoreState(ref, sched.CoreRestricted, banned)
			if err != nil {
				return nil, err
			}
			if t != nil {
				evicted = append(evicted, t)
			}
		}
	default:
		return nil, fmt.Errorf("quarantine: unknown mode %v", m.Policy.Mode)
	}

	rec.EvictedTasks = len(evicted)
	for _, t := range evicted {
		if _, err := m.Cluster.Place(t); err == nil {
			rec.ReplacedTasks++
			m.Cluster.Migrations++
		}
	}
	m.records[ref] = rec
	m.ledger = append(m.ledger, ref)
	m.Metrics.Counter("quarantine_isolated_total", obs.L("mode", rec.Mode.String())).Inc()
	if rec.Confessed {
		m.Metrics.Counter("quarantine_confessions_total").Inc()
	}
	return rec, nil
}
