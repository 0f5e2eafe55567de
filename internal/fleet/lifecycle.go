package fleet

// Machine-lifecycle control-plane wiring (see internal/lifecycle). When
// Config.Lifecycle enables it, the simulator keeps the same ledger the
// report daemon serves over its admin API: convicted machines are
// cordoned → drained in the ledger as quarantine drains them, repairs
// send them through repairing → probation, and a clean probation window
// releases them to healthy. A machine that burns through its repair
// budget is escalated to permanent removal (the recidivist policy) — it
// keeps its drain and never gets another repair ticket.
//
// Every call in this file happens in the day loop's serial phases (or in
// between-day event hooks), and the lifecycle package consumes no
// randomness, so an enabled control plane preserves the bit-identical-
// at-any-parallelism contract.

import (
	"sort"

	"repro/internal/lifecycle"
	"repro/internal/remediate"
)

// LifecycleConfig enables the machine-lifecycle control plane inside the
// simulator. The zero value disables it and changes nothing — no ledger,
// no recidivist removal, no probation accounting.
type LifecycleConfig struct {
	// Enabled switches the control plane on.
	Enabled bool `scn:"enabled"`
	// MaxRepairs is the recidivist threshold: after this many completed
	// repair cycles the next cordon escalates to permanent removal.
	// 0 means the lifecycle package default (2).
	MaxRepairs int `scn:"max_repairs"`
	// ProbationDays is how long a repaired machine stays in probation
	// before a clean record releases it to healthy. 0 means 7.
	ProbationDays int `scn:"probation_days"`
	// WALPath, when set, persists every ledger transition to a CRC-framed
	// write-ahead log (replayed if the file already holds records). Empty
	// keeps the ledger memory-only — the usual simulator configuration.
	WALPath string
	// FS overrides the filesystem under the WAL (the chaos fault seam);
	// nil means the real one. Ignored without WALPath.
	FS lifecycle.FS
	// Pools declares capacity pools with serving floors; machines are
	// striped across them round-robin at build time. Drains that would
	// breach a floor are deferred onto the ledger's admission queue
	// instead of applied. Empty means no pools and no deferral — the
	// pre-pools behavior, bit for bit.
	Pools []lifecycle.PoolConfig
	// Notifier, when set, receives every applied ledger record (state
	// transitions and defer/undefer bookkeeping). It is called from the
	// fleet's serial phases and must not call back into the fleet or the
	// manager.
	Notifier remediate.Notifier
}

// lifeCounters buffers one day's ledger transitions for DayStats.
type lifeCounters struct {
	cordoned, drained, removed, reintroduced int
}

// buildLifecycle constructs the manager in newFleet when the config enables it.
func (f *Fleet) buildLifecycle() {
	cfg := f.cfg.Lifecycle
	if !cfg.Enabled {
		return
	}
	f.probation = map[string]int{}
	f.retests = map[string]int{}
	f.lifeNotify = cfg.Notifier
	opts := lifecycle.Options{MaxRepairs: cfg.MaxRepairs, Observer: f.lifeObserve, FS: cfg.FS, Metrics: f.obs}
	if cfg.WALPath == "" {
		f.life = lifecycle.NewManager(opts)
	} else {
		life, _, err := lifecycle.Open(cfg.WALPath, opts)
		if err != nil {
			panic("fleet: lifecycle WAL: " + err.Error())
		}
		f.life = life
	}
	f.buildPolicy()
	if len(cfg.Pools) == 0 {
		return
	}
	f.poolTickets = map[string]int{}
	for _, p := range cfg.Pools {
		f.life.DefinePool(p)
		if n := f.cfg.Remediate.RepairTicketsPerPool; n > 0 {
			f.poolTickets[p.Name] = n
		}
	}
	// Stripe machines across pools round-robin. Membership is a WAL
	// record, so a replayed ledger already holds it and AssignPool no-ops.
	for i, m := range f.machines {
		if err := f.life.AssignPool(m.ID, cfg.Pools[i%len(cfg.Pools)].Name); err != nil {
			panic("fleet: pool assignment: " + err.Error())
		}
	}
}

// buildPolicy resolves the configured remediation policy. Unknown names
// panic in newFleet, like every other invalid fleet configuration.
func (f *Fleet) buildPolicy() {
	r := f.cfg.Remediate
	p, err := remediate.ByName(r.Policy)
	if err != nil {
		panic("fleet: " + err.Error())
	}
	if _, ok := p.(remediate.EscalatingPolicy); ok {
		p = remediate.EscalatingPolicy{ScoreThreshold: r.ScoreThreshold, MaxRetests: r.MaxRetests}
	}
	f.policy = p
}

// Lifecycle returns the machine-lifecycle ledger (nil when disabled).
func (f *Fleet) Lifecycle() *lifecycle.Manager { return f.life }

// lifeObserve is the manager's record observer: it tallies the day's
// counters for DayStats (the manager counts the registry's lifecycle_*
// series itself) and forwards every record to the configured notifier.
// It runs inside the manager's lock but only ever from the fleet's own
// serial phases.
func (f *Fleet) lifeObserve(t lifecycle.Transition) {
	switch t.Kind {
	case lifecycle.KindDefer:
		// A bookkeeping record, not a state transition: the To field names
		// the parked verb, so it must not fall into the counter switch.
	case lifecycle.KindUndefer:
		if t.Reason == "admitted" {
			// The ledger has already applied the parked verb; the cluster
			// side completes in lifeEndOfDay, in admission order.
			f.lifeAdmitted = append(f.lifeAdmitted, t.Machine)
		}
	case lifecycle.KindAssign:
		// Setup-time membership; nothing to count.
	default:
		switch t.To {
		case lifecycle.Cordoned.String():
			f.lifePending.cordoned++
		case lifecycle.Drained.String():
			f.lifePending.drained++
		case lifecycle.Removed.String():
			f.lifePending.removed++
		case lifecycle.Probation.String(), lifecycle.Healthy.String():
			// Both count as "coming back toward service": repair completion
			// lands in probation, releases and exonerations land in healthy.
			f.lifePending.reintroduced++
		}
	}
	if f.lifeNotify != nil {
		f.lifeNotify.Notify(remediate.EventOf(t))
	}
}

// probationDays returns the configured probation window with its default.
func (f *Fleet) probationDays() int {
	if d := f.cfg.Lifecycle.ProbationDays; d > 0 {
		return d
	}
	return 7
}

// lifeConvict records a conviction-driven machine drain in the ledger:
// cordon (possibly escalating), drain, and — because Cluster.Drain
// already evicted the tasks synchronously — drained, all stamped today.
// It returns true when the cordon escalated to permanent removal: the
// caller must not schedule a repair ticket, the machine stays drained.
func (f *Fleet) lifeConvict(machine string, day int) bool {
	if f.life == nil {
		return false
	}
	// The conviction consumed the suspicion; replaced silicon starts a
	// fresh retest budget.
	delete(f.retests, machine)
	st, _ := f.life.Drain(machine, day, "convicted mercurial core", "quarantine")
	if st == lifecycle.Removed {
		return true
	}
	f.life.MarkDrained(machine, day, "quarantine")
	return false
}

// lifeRepairComplete moves a repaired machine through repairing into
// probation and schedules the probation expiry.
func (f *Fleet) lifeRepairComplete(machine string, day int) {
	if f.life == nil {
		return
	}
	f.life.StartRepair(machine, day, "repair")
	st, _ := f.life.Reintroduce(machine, day, "silicon replaced", "repair")
	if st == lifecycle.Probation {
		f.probation[machine] = day + f.probationDays()
	}
}

// lifeCoreRepaired clears a machine's suspect mark after a core-granular
// repair (the machine itself was never drained, so there is no probation).
func (f *Fleet) lifeCoreRepaired(machine string, day int) {
	if f.life == nil {
		return
	}
	if rec, ok := f.life.State(machine); ok && rec.State == lifecycle.Suspect {
		f.life.Reintroduce(machine, day, "core repaired", "repair")
	}
}

// lifeEndOfDay releases machines whose probation window expired cleanly
// (sorted order — the map must never leak iteration order into the
// ledger), completes the cluster side of drains the ledger admitted off
// the deferred queue today, counts the day's pool-floor breaches and WAL
// health in the registry, and flushes the day's transition counters into
// st.
func (f *Fleet) lifeEndOfDay(day int, st *DayStats) {
	if f.life == nil {
		return
	}
	if len(f.probation) > 0 {
		due := make([]string, 0, len(f.probation))
		for m, until := range f.probation {
			if until <= day {
				due = append(due, m)
			}
		}
		sort.Strings(due)
		for _, m := range due {
			// A machine re-convicted during probation has moved on; its
			// expiry entry is stale and just dropped.
			if rec, ok := f.life.State(m); ok && rec.State == lifecycle.Probation {
				f.life.Reintroduce(m, day, "probation clean", "fleet")
			}
			delete(f.probation, m)
		}
	}
	f.completeAdmitted(day)
	for _, ps := range f.life.Pools() {
		if ps.Serving < ps.Floor {
			f.obs.Counter("lifecycle_pool_floor_breaches_total").Inc()
		}
	}
	if f.life.WALHealth() != nil {
		f.obs.Counter("lifecycle_wal_error_days_total").Inc()
	}
	st.LifeCordoned = f.lifePending.cordoned
	st.LifeDrained = f.lifePending.drained
	st.LifeRemoved = f.lifePending.removed
	st.LifeReintroduced = f.lifePending.reintroduced
	f.lifePending = lifeCounters{}
}

// completeAdmitted applies the cluster side of drains (and cordons) the
// ledger admitted off the deferred queue today, in admission order. The
// ledger transitions already happened inside the manager (cordoned, or
// cordoned→draining→drained); here the simulator catches the cluster up:
// evict tasks, stop workload and screening, and — for drains — schedule
// the repair that eventually returns the capacity.
func (f *Fleet) completeAdmitted(day int) {
	admitted := f.lifeAdmitted
	f.lifeAdmitted = nil
	for _, id := range admitted {
		rec, ok := f.life.State(id)
		if !ok {
			continue
		}
		switch rec.State {
		case lifecycle.Cordoned:
			// An admitted cordon intent: stop placements, keep running tasks.
			f.cluster.Cordon(id)
		case lifecycle.Drained, lifecycle.Removed:
			if f.machineByID(id).cluster.Drained() {
				continue
			}
			f.cluster.Drain(id)
			f.server.Forget(id)
			if rec.State == lifecycle.Removed {
				// Admission tripped the recidivist escalation: the machine is
				// permanently decommissioned — no repair ticket.
				continue
			}
			f.scheduleRepair(id, -1, day)
		}
	}
}

// poolTicketsFor reports the remaining repair-ticket budget of machine's
// pool: -1 when unbudgeted (no pool, or no budget configured).
func (f *Fleet) poolTicketsFor(machine string) int {
	if f.poolTickets == nil || f.life == nil {
		return -1
	}
	pool := f.life.PoolOf(machine)
	if pool == "" {
		return -1
	}
	n, ok := f.poolTickets[pool]
	if !ok {
		return -1
	}
	return n
}

// poolTicketConsume spends one repair ticket from machine's pool budget.
func (f *Fleet) poolTicketConsume(machine string) {
	if n := f.poolTicketsFor(machine); n > 0 {
		f.poolTickets[f.life.PoolOf(machine)] = n - 1
	}
}

// poolTicketRestore returns a repair ticket to machine's pool budget when
// its whole-machine repair completes.
func (f *Fleet) poolTicketRestore(machine string) {
	if n := f.poolTicketsFor(machine); n >= 0 {
		f.poolTickets[f.life.PoolOf(machine)] = n + 1
	}
}

// remediateGate consults the remediation policy (and the pool's drain
// budget) before a machine-drain conviction. It returns proceed=false
// when the suspect should not be convicted today — retested in place, or
// its drain deferred behind the pool floor — and swap=true when the
// policy wants the silicon swapped from spares instead of repaired
// through the ticket queue. Under the default policy with no pools it
// always returns (true, false) without touching any state, keeping the
// default path bit-identical.
func (f *Fleet) remediateGate(machine string, score float64, day int) (proceed, swap bool) {
	view := remediate.MachineView{
		Machine:           machine,
		Score:             score,
		Retests:           f.retests[machine],
		PoolRepairTickets: f.poolTicketsFor(machine),
	}
	if f.life != nil {
		view.Pool = f.life.PoolOf(machine)
		if rec, ok := f.life.State(machine); ok {
			view.State = rec.State.String()
			view.RepairCycles = rec.RepairCycles
		}
	}
	act := f.policy.Decide(view)
	switch act.Kind {
	case remediate.ActRetest:
		f.retests[machine]++
		f.obs.Counter("lifecycle_retests_total").Inc()
		return false, false
	case remediate.ActNone:
		return false, false
	case remediate.ActSwap:
		return true, true
	}
	// ActDrain: the pool budget has the last word. A deferred machine
	// keeps serving; the durable intent admits itself (and the cluster
	// side completes) once repaired capacity returns.
	if f.life != nil && f.life.DrainWouldDefer(machine) {
		f.life.DeferDrain(machine, day, "convicted mercurial core", "quarantine", score)
		return false, false
	}
	return true, false
}
