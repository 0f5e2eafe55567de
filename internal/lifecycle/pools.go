package lifecycle

// Capacity pools and the deferred-drain queue. A pool declares how many of
// its machines must stay in service (the §5–§7 lesson, sharpened by the
// Facebook SDC paper: remediation that drains too aggressively costs more
// capacity than the mercurial cores it removes). Cordon and drain requests
// that would push a pool below its floor are not refused — they are parked
// on a conviction-score-ordered queue and admitted as repaired machines
// return. Both the intents and pool membership are WAL records, so a
// crash-recovered manager resumes with the exact queue it acknowledged.
//
// "Serving" for floor purposes means Healthy, Suspect, or Probation: a
// suspect machine still runs workload (that is the whole point of
// deferring its drain), while cordoned/draining/drained/repairing/removed
// machines contribute nothing. Remove is deliberately not budget-checked:
// it is the operator's force verb.

import (
	"errors"
	"math"
	"sort"

	"repro/internal/obs"
)

// ErrDeferred reports that a capacity-reducing request was parked on the
// pool's deferred-drain queue instead of applied. The ledger is unchanged
// (beyond the durable intent record); the request is admitted
// automatically as capacity returns.
var ErrDeferred = errors.New("lifecycle: request deferred: pool at capacity floor")

// PoolConfig declares one capacity pool. The effective floor is
// max(MinHealthyCount, ceil(MinHealthy × members)).
type PoolConfig struct {
	Name string `scn:"name"`
	// MinHealthy is the fraction of members that must stay serving (0..1).
	MinHealthy float64 `scn:"min_healthy"`
	// MinHealthyCount is an absolute serving floor.
	MinHealthyCount int `scn:"min_healthy_count"`
}

// floor computes the effective serving floor for a pool of `members`.
func (c PoolConfig) floor(members int) int {
	fl := 0
	if c.MinHealthy > 0 {
		fl = int(math.Ceil(c.MinHealthy * float64(members)))
	}
	if c.MinHealthyCount > fl {
		fl = c.MinHealthyCount
	}
	return fl
}

// PoolStatus is one pool's capacity snapshot.
type PoolStatus struct {
	Name            string  `json:"name"`
	Machines        int     `json:"machines"`
	Serving         int     `json:"serving"`
	Floor           int     `json:"floor"`
	Deferred        int     `json:"deferred"`
	MinHealthy      float64 `json:"min_healthy,omitempty"`
	MinHealthyCount int     `json:"min_healthy_count,omitempty"`
}

// DeferredDrain is one parked capacity-reducing intent.
type DeferredDrain struct {
	Machine string `json:"machine"`
	Pool    string `json:"pool"`
	// Verb is the intended target state: "cordoned" or "draining".
	Verb   string  `json:"verb"`
	Score  float64 `json:"score"`
	Day    int     `json:"day"`
	Reason string  `json:"reason,omitempty"`
	Actor  string  `json:"actor,omitempty"`
	// Seq is the intent's arrival order — the tie-break under equal scores.
	Seq uint64 `json:"seq"`
}

// servingState reports whether a machine in state s counts toward its
// pool's serving floor.
func servingState(s State) bool {
	return s == Healthy || s == Suspect || s == Probation
}

// DefinePool registers (or redefines) a pool. Definitions are supplied by
// configuration at startup and are not WAL-persisted; membership is (see
// AssignPool).
func (m *Manager) DefinePool(cfg PoolConfig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pools[cfg.Name] = cfg
}

// AssignPool durably sets a machine's pool membership ("" clears it).
// Assignment is a setup-time operation: it does not trigger deferred-drain
// admission on its own.
func (m *Manager) AssignPool(machine, pool string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.record(machine)
	if r.Pool == pool {
		return nil
	}
	t := Transition{Machine: machine, Kind: KindAssign, Pool: pool, Actor: "config"}
	if m.wal != nil {
		var err error
		if t, err = m.wal.Append(t); err != nil {
			m.dropUntouchedLocked(machine)
			return err
		}
	}
	m.applyAssign(t)
	return nil
}

// PoolOf returns the machine's pool ("" when unassigned).
func (m *Manager) PoolOf(machine string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.machines[machine]; r != nil {
		return r.Pool
	}
	return ""
}

// poolCounts tallies members and serving machines per pool (lock held).
func (m *Manager) poolCounts() (members, serving map[string]int) {
	members = map[string]int{}
	serving = map[string]int{}
	for _, r := range m.machines {
		if r.Pool == "" {
			continue
		}
		members[r.Pool]++
		if servingState(r.State) {
			serving[r.Pool]++
		}
	}
	return members, serving
}

// Pools returns every defined pool's capacity snapshot, sorted by name.
func (m *Manager) Pools() []PoolStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	members, serving := m.poolCounts()
	deferredBy := map[string]int{}
	for _, d := range m.deferred {
		deferredBy[d.Pool]++
	}
	out := make([]PoolStatus, 0, len(m.pools))
	for name, cfg := range m.pools {
		out = append(out, PoolStatus{
			Name:            name,
			Machines:        members[name],
			Serving:         serving[name],
			Floor:           cfg.floor(members[name]),
			Deferred:        deferredBy[name],
			MinHealthy:      cfg.MinHealthy,
			MinHealthyCount: cfg.MinHealthyCount,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeferredDrains returns the queue in admission order: conviction score
// descending, arrival order ascending among equals.
func (m *Manager) DeferredDrains() []DeferredDrain {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DeferredDrain, 0, len(m.deferred))
	for _, d := range m.deferred {
		out = append(out, *d)
	}
	sortDeferred(out)
	return out
}

func sortDeferred(ds []DeferredDrain) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Score != ds[j].Score {
			return ds[i].Score > ds[j].Score
		}
		return ds[i].Seq < ds[j].Seq
	})
}

// wouldBreachLocked reports whether taking machine out of service now
// would push its pool below the floor.
func (m *Manager) wouldBreachLocked(machine string) bool {
	r := m.machines[machine]
	if r == nil || r.Pool == "" {
		return false
	}
	cfg, ok := m.pools[r.Pool]
	if !ok {
		return false
	}
	if !servingState(r.State) {
		// Already out of service: the pool loses nothing more.
		return false
	}
	members, serving := m.poolCounts()
	return serving[r.Pool]-1 < cfg.floor(members[r.Pool])
}

// DrainWouldDefer reports whether a drain of machine would be parked on
// the deferred queue right now (already queued, or over budget). It is
// the fleet simulator's read-only pre-conviction probe.
func (m *Manager) DrainWouldDefer(machine string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.deferred[machine] != nil {
		return true
	}
	return m.wouldBreachLocked(machine)
}

// DeferDrain durably parks a drain intent for machine without attempting
// the drain — the caller (the fleet's pre-conviction gate) has already
// decided capacity forbids it. Re-deferring a queued machine keeps its
// original queue position.
func (m *Manager) DeferDrain(machine string, day int, reason, actor string, score float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deferLocked(machine, Draining, day, reason, actor, score)
}

// DeferCordon durably parks a cordon intent — like DeferDrain, but the
// admitted verb stops at Cordoned instead of completing a drain.
func (m *Manager) DeferCordon(machine string, day int, reason, actor string, score float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deferLocked(machine, Cordoned, day, reason, actor, score)
}

// deferLocked appends and applies a defer record. A machine already
// queued with the same verb is a no-op (it keeps its arrival order).
func (m *Manager) deferLocked(machine string, verb State, day int, reason, actor string, score float64) error {
	if d := m.deferred[machine]; d != nil && d.Verb == verb.String() {
		return nil
	}
	r := m.record(machine)
	t := Transition{
		Day: day, Machine: machine, Kind: KindDefer,
		To: verb.String(), Pool: r.Pool, Score: score,
		Reason: reason, Actor: actor,
	}
	if m.wal != nil {
		var err error
		if t, err = m.wal.Append(t); err != nil {
			m.dropUntouchedLocked(machine)
			return err
		}
	}
	m.applyDefer(t)
	return nil
}

// undeferLocked appends and applies an undefer record.
func (m *Manager) undeferLocked(machine string, day int, reason, actor string) error {
	t := Transition{Day: day, Machine: machine, Kind: KindUndefer, Reason: reason, Actor: actor}
	if m.wal != nil {
		var err error
		if t, err = m.wal.Append(t); err != nil {
			return err
		}
	}
	m.applyUndefer(t)
	return nil
}

// applyDefer mutates the queue for one defer record (live or replay).
func (m *Manager) applyDefer(t Transition) {
	m.intentSeq++
	m.deferred[t.Machine] = &DeferredDrain{
		Machine: t.Machine, Pool: t.Pool, Verb: t.To, Score: t.Score,
		Day: t.Day, Reason: t.Reason, Actor: t.Actor, Seq: m.intentSeq,
	}
	if m.opts.Metrics != nil {
		m.opts.Metrics.Counter("lifecycle_drains_deferred_total").Inc()
	}
	if m.opts.Observer != nil {
		m.opts.Observer(t)
	}
}

// applyUndefer mutates the queue for one undefer record (live or replay).
func (m *Manager) applyUndefer(t Transition) {
	delete(m.deferred, t.Machine)
	if m.opts.Metrics != nil {
		m.opts.Metrics.Counter("lifecycle_drains_undeferred_total", obs.L("reason", t.Reason)).Inc()
	}
	if m.opts.Observer != nil {
		m.opts.Observer(t)
	}
}

// applyAssign mutates pool membership for one assign record.
func (m *Manager) applyAssign(t Transition) {
	r := m.record(t.Machine)
	r.Pool = t.Pool
}

// admitLocked drains the deferred queue while pools have slack: the
// highest-score (oldest among equals) intent whose pool sits above its
// floor is admitted — the original verb is applied, drains completing
// immediately as everywhere else in the daemon — until no pool can give
// up another machine. Called after capacity-returning transitions; never
// during replay (the WAL already recorded what really happened).
func (m *Manager) admitLocked(day int) {
	for len(m.deferred) > 0 && len(m.pools) > 0 {
		members, serving := m.poolCounts()
		// Order the queue, dropping stale intents (machines that left the
		// serving set by some other path — operator remove, direct drain).
		queue := make([]DeferredDrain, 0, len(m.deferred))
		for _, d := range m.deferred {
			queue = append(queue, *d)
		}
		sortDeferred(queue)
		admitted := false
		for _, d := range queue {
			r := m.machines[d.Machine]
			if r == nil || !servingState(r.State) {
				if m.undeferLocked(d.Machine, day, "stale", "pool") != nil {
					return
				}
				admitted = true
				break
			}
			cfg, ok := m.pools[d.Pool]
			if !ok {
				continue
			}
			if serving[d.Pool]-1 < cfg.floor(members[d.Pool]) {
				continue
			}
			// Apply the parked verb with the original reason/actor, then
			// clear the intent. The transitions come first: a crash between
			// them leaves a stale intent (cleared above on the next pass),
			// never a silently lost one.
			st, err := m.transitionLocked(d.Machine, Cordoned, day, d.Reason, d.Actor)
			if err != nil {
				return
			}
			if d.Verb == Draining.String() && st != Removed {
				if _, err := m.transitionLocked(d.Machine, Draining, day, d.Reason, d.Actor); err != nil {
					return
				}
				if _, err := m.transitionLocked(d.Machine, Drained, day, d.Reason, d.Actor); err != nil {
					return
				}
			}
			if m.undeferLocked(d.Machine, day, "admitted", d.Actor) != nil {
				return
			}
			if m.opts.Metrics != nil {
				m.opts.Metrics.Counter("lifecycle_drains_admitted_total").Inc()
			}
			admitted = true
			break
		}
		if !admitted {
			return
		}
	}
}
