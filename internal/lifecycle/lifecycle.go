// Package lifecycle is the machine-lifecycle control plane of §5–§6: the
// operational loop that cordons suspect machines, drains their workload,
// sends them through repair, reintroduces them on probation, and
// permanently removes recidivists. Every transition is validated against
// an explicit state machine and persisted to an append-only, CRC-framed
// JSONL write-ahead log BEFORE the in-memory ledger mutates, so the
// control plane itself survives crashes on the infrastructure it manages
// — replaying the WAL on startup reconstructs the exact pre-crash ledger,
// and torn tail writes (the kill -9 signature) are detected and dropped.
//
// The state machine:
//
//	healthy → suspect → cordoned → draining → drained → repairing →
//	probation → healthy        (the repair loop)
//
//	probation → suspect/cordoned   (recidivism; past MaxRepairs repair
//	                                cycles a cordon escalates to removed)
//	any state → removed            (permanent removal)
//	suspect/cordoned/drained/probation → healthy   (release/exoneration)
//
// Manager is safe for concurrent use (the report daemon's HTTP handlers
// call it from many goroutines); the fleet simulator calls it from its
// serial phases only, and nothing in this package consumes randomness, so
// an enabled control plane preserves the simulator's bit-identical-at-any-
// parallelism contract.
package lifecycle

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// State is one machine-lifecycle state.
type State int

const (
	// Healthy machines serve traffic normally.
	Healthy State = iota
	// Suspect machines have concentrated CEE signals but no action yet.
	Suspect
	// Cordoned machines accept no new work; existing work keeps running.
	Cordoned
	// Draining machines are having their workload migrated away.
	Draining
	// Drained machines run nothing and are ready for screening/repair.
	Drained
	// Repairing machines are at the vendor / in the RMA loop.
	Repairing
	// Probation machines are back in service under heightened watch.
	Probation
	// Removed machines are permanently out (recidivists, unrepairable).
	Removed
	numStates
)

var stateNames = [...]string{
	"healthy", "suspect", "cordoned", "draining",
	"drained", "repairing", "probation", "removed",
}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// StateByName resolves a state name ("cordoned") to its State.
func StateByName(name string) (State, error) {
	for i, n := range stateNames {
		if n == name {
			return State(i), nil
		}
	}
	return 0, fmt.Errorf("lifecycle: unknown state %q", name)
}

// StateNames returns the state vocabulary in declaration order.
func StateNames() []string {
	out := make([]string, len(stateNames))
	copy(out, stateNames[:])
	return out
}

// allowed is the transition relation. Removal (any non-removed state →
// Removed) is handled separately in validate.
var allowed = [numStates][]State{
	Healthy:   {Suspect, Cordoned},
	Suspect:   {Cordoned, Healthy},
	Cordoned:  {Draining, Healthy},
	Draining:  {Drained},
	Drained:   {Repairing, Healthy},
	Repairing: {Probation},
	Probation: {Healthy, Suspect, Cordoned},
	Removed:   {},
}

// validate reports whether from → to is a legal edge.
func validate(from, to State) bool {
	if to == Removed {
		return from != Removed
	}
	for _, s := range allowed[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Record is one machine's live ledger entry.
type Record struct {
	Machine string `json:"machine"`
	State   State  `json:"-"`
	// StateName mirrors State for JSON consumers (the admin API).
	StateName string `json:"state"`
	// SinceDay is the day of the most recent transition.
	SinceDay int `json:"since_day"`
	// RepairCycles counts completed repairs (transitions into probation);
	// at Policy.MaxRepairs, the next cordon escalates to removal.
	RepairCycles int `json:"repair_cycles"`
	// Transitions counts every applied transition.
	Transitions int `json:"transitions"`
	// LastReason is the reason attached to the most recent transition.
	LastReason string `json:"last_reason,omitempty"`
	// Pool is the machine's capacity pool ("" when unassigned).
	Pool string `json:"pool,omitempty"`
}

// Options configures a Manager.
type Options struct {
	// WAL persists every transition; nil keeps the ledger memory-only
	// (the fleet simulator's default).
	WAL *WAL
	// MaxRepairs is the recidivist threshold: once a machine has completed
	// this many repair cycles, the next cordon escalates to permanent
	// removal. 0 means the default of 2.
	MaxRepairs int
	// Metrics, when set, counts transitions by target state and the
	// deferred-drain queue's defers, undefers and admissions.
	Metrics *obs.Registry
	// Observer, when set, sees every applied WAL record — state
	// transitions and the pool bookkeeping kinds — after the WAL append,
	// before the manager lock is released. It must not call back into the
	// manager.
	Observer func(Transition)
	// FS is the filesystem Open uses for the WAL; nil means the real
	// filesystem. The chaos harness injects disk faults here.
	FS FS
}

// Manager owns the lifecycle ledger.
type Manager struct {
	mu       sync.Mutex
	wal      *WAL
	machines map[string]*Record
	pools    map[string]PoolConfig
	deferred map[string]*DeferredDrain
	// intentSeq orders deferred intents for the equal-score tie-break; it
	// advances identically on the live and replay paths.
	intentSeq uint64
	opts      Options
}

// NewManager returns a manager with an empty ledger (plus whatever opts.WAL
// already holds — use Open to replay a log).
func NewManager(opts Options) *Manager {
	if opts.MaxRepairs <= 0 {
		opts.MaxRepairs = 2
	}
	return &Manager{
		wal:      opts.WAL,
		machines: map[string]*Record{},
		pools:    map[string]PoolConfig{},
		deferred: map[string]*DeferredDrain{},
		opts:     opts,
	}
}

// Open opens the WAL at path (on opts.FS, defaulting to the real
// filesystem), replays its durable records into a fresh ledger, and
// returns the manager plus recovery info. opts.WAL is ignored (the opened
// log is used). Replay restores — never acts on — the deferred-drain
// queue: admission resumes only when live traffic returns capacity.
func Open(path string, opts Options) (*Manager, RecoverInfo, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	wal, recs, info, err := OpenWALFS(fsys, path)
	if err != nil {
		return nil, info, err
	}
	opts.WAL = wal
	m := NewManager(opts)
	for _, t := range recs {
		if err := m.replay(t); err != nil {
			wal.Close()
			return nil, info, err
		}
	}
	return m, info, nil
}

// Close closes the underlying WAL (if any).
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	return err
}

// record returns (creating on demand) the ledger entry for machine.
func (m *Manager) record(machine string) *Record {
	r := m.machines[machine]
	if r == nil {
		r = &Record{Machine: machine, State: Healthy, StateName: Healthy.String()}
		m.machines[machine] = r
	}
	return r
}

// replay applies one recovered WAL record with the same validation the
// live path uses. A replay failure means the log's history is inconsistent
// — surfaced, never skipped.
func (m *Manager) replay(t Transition) error {
	switch t.Kind {
	case KindDefer:
		if _, err := StateByName(t.To); err != nil {
			return fmt.Errorf("lifecycle: replay seq %d: defer verb: %v", t.Seq, err)
		}
		m.applyDefer(t)
		return nil
	case KindUndefer:
		m.applyUndefer(t)
		return nil
	case KindAssign:
		m.applyAssign(t)
		return nil
	case "":
		// Ordinary state transition, validated below.
	default:
		return fmt.Errorf("lifecycle: replay seq %d: unknown record kind %q", t.Seq, t.Kind)
	}
	from, err := StateByName(t.From)
	if err != nil {
		return fmt.Errorf("lifecycle: replay seq %d: %v", t.Seq, err)
	}
	to, err := StateByName(t.To)
	if err != nil {
		return fmt.Errorf("lifecycle: replay seq %d: %v", t.Seq, err)
	}
	r := m.record(t.Machine)
	if r.State != from {
		return fmt.Errorf("lifecycle: replay seq %d: machine %s is %s, record says %s",
			t.Seq, t.Machine, r.State, from)
	}
	if !validate(from, to) {
		return fmt.Errorf("lifecycle: replay seq %d: illegal transition %s → %s", t.Seq, from, to)
	}
	m.apply(r, to, t)
	return nil
}

// apply mutates the ledger for one validated transition.
func (m *Manager) apply(r *Record, to State, t Transition) {
	r.State = to
	r.StateName = to.String()
	r.SinceDay = t.Day
	r.Transitions++
	r.LastReason = t.Reason
	if to == Probation {
		r.RepairCycles++
	}
	if m.opts.Metrics != nil {
		m.opts.Metrics.Counter("lifecycle_transitions_total", obs.L("to", to.String())).Inc()
	}
	if m.opts.Observer != nil {
		m.opts.Observer(t)
	}
}

// transition moves machine to state `to`, WAL-first. Requesting the
// current state is an idempotent no-op (no WAL record). The returned state
// is the machine's state afterwards.
func (m *Manager) transition(machine string, to State, day int, reason, actor string) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.transitionLocked(machine, to, day, reason, actor)
}

func (m *Manager) transitionLocked(machine string, to State, day int, reason, actor string) (State, error) {
	r := m.record(machine)
	if r.State == to {
		return to, nil
	}
	// Recidivist escalation: a machine that already burned its repair
	// budget does not get another cordon→repair loop — it is removed.
	if to == Cordoned && r.RepairCycles >= m.opts.MaxRepairs {
		to = Removed
		if reason == "" {
			reason = "recidivist"
		} else {
			reason += " (recidivist)"
		}
	}
	if !validate(r.State, to) {
		return r.State, fmt.Errorf("lifecycle: machine %s: illegal transition %s → %s", machine, r.State, to)
	}
	t := Transition{
		Day: day, Machine: machine,
		From: r.State.String(), To: to.String(),
		Reason: reason, Actor: actor,
	}
	if m.wal != nil {
		var err error
		if t, err = m.wal.Append(t); err != nil {
			// Not durable ⇒ not applied: the ledger and the log never
			// disagree in the direction that loses a recorded transition.
			// That includes the record itself — if this machine's entry was
			// materialized only for the failed attempt, drop it so replay
			// and the live ledger agree on which machines exist.
			m.dropUntouchedLocked(machine)
			return r.State, err
		}
	}
	m.apply(r, to, t)
	return to, nil
}

// dropUntouchedLocked removes machine's ledger entry if nothing durable
// ever touched it: no applied transitions, no pool membership, no
// deferred intent. Called after a failed WAL append so a machine the log
// never heard of does not linger in List() as a phantom healthy record.
func (m *Manager) dropUntouchedLocked(machine string) {
	r, ok := m.machines[machine]
	if !ok {
		return
	}
	if r.Transitions == 0 && r.State == Healthy && r.Pool == "" && m.deferred[machine] == nil {
		delete(m.machines, machine)
	}
}

// MarkSuspect flags a healthy or probation machine as suspect. Any other
// state (already acted on, or removed) is a no-op.
func (m *Manager) MarkSuspect(machine string, day int, reason string) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.record(machine)
	if r.State != Healthy && r.State != Probation {
		return r.State, nil
	}
	return m.transitionLocked(machine, Suspect, day, reason, "detector")
}

// Cordon stops new work from landing on the machine. Healthy, suspect, and
// probation machines may be cordoned; a machine past its repair budget is
// escalated to Removed instead (see Options.MaxRepairs). A cordon that
// would push the machine's pool below its floor is deferred (ErrDeferred).
func (m *Manager) Cordon(machine string, day int, reason, actor string) (State, error) {
	return m.CordonScored(machine, day, reason, actor, 0)
}

// CordonScored is Cordon carrying a conviction score for deferred-queue
// ordering should the pool floor block it.
func (m *Manager) CordonScored(machine string, day int, reason, actor string, score float64) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.record(machine)
	if r.State == Cordoned {
		return r.State, nil
	}
	if m.wouldBreachLocked(machine) {
		if err := m.deferLocked(machine, Cordoned, day, reason, actor, score); err != nil {
			return r.State, err
		}
		return r.State, ErrDeferred
	}
	// A direct cordon supersedes any parked intent for the machine.
	if m.deferred[machine] != nil {
		if err := m.undeferLocked(machine, day, "superseded", actor); err != nil {
			return r.State, err
		}
	}
	return m.transitionLocked(machine, Cordoned, day, reason, actor)
}

// Drain starts workload migration off the machine, cordoning first if
// needed. If the cordon escalates to removal, the machine is Removed and
// no drain is recorded. A drain that would push the machine's pool below
// its floor is deferred (ErrDeferred).
func (m *Manager) Drain(machine string, day int, reason, actor string) (State, error) {
	return m.DrainScored(machine, day, reason, actor, 0)
}

// DrainScored is Drain carrying a conviction score for deferred-queue
// ordering should the pool floor block it.
func (m *Manager) DrainScored(machine string, day int, reason, actor string, score float64) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.record(machine)
	if r.State == Draining || r.State == Drained {
		return r.State, nil
	}
	if m.wouldBreachLocked(machine) {
		if err := m.deferLocked(machine, Draining, day, reason, actor, score); err != nil {
			return r.State, err
		}
		return r.State, ErrDeferred
	}
	if m.deferred[machine] != nil {
		if err := m.undeferLocked(machine, day, "superseded", actor); err != nil {
			return r.State, err
		}
	}
	if r.State == Healthy || r.State == Suspect || r.State == Probation {
		st, err := m.transitionLocked(machine, Cordoned, day, reason, actor)
		if err != nil || st == Removed {
			return st, err
		}
	}
	return m.transitionLocked(machine, Draining, day, reason, actor)
}

// MarkDrained records that the machine's workload is fully migrated. The
// drained record keeps the reason the drain was started with.
func (m *Manager) MarkDrained(machine string, day int, actor string) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	reason := ""
	if r := m.machines[machine]; r != nil && r.State == Draining {
		reason = r.LastReason
	}
	return m.transitionLocked(machine, Drained, day, reason, actor)
}

// StartRepair sends a drained machine into the repair loop.
func (m *Manager) StartRepair(machine string, day int, actor string) (State, error) {
	return m.transition(machine, Repairing, day, "", actor)
}

// Reintroduce returns a machine toward service: a repairing machine enters
// probation; suspect, cordoned, drained, and probation machines go
// straight to healthy (release/exoneration). Capacity returning to a pool
// triggers a deferred-drain admission sweep.
func (m *Manager) Reintroduce(machine string, day int, reason, actor string) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.record(machine)
	st, err := func() (State, error) {
		switch r.State {
		case Repairing:
			return m.transitionLocked(machine, Probation, day, reason, actor)
		case Draining:
			// Finish the drain, then release.
			if _, err := m.transitionLocked(machine, Drained, day, reason, actor); err != nil {
				return r.State, err
			}
			return m.transitionLocked(machine, Healthy, day, reason, actor)
		default:
			return m.transitionLocked(machine, Healthy, day, reason, actor)
		}
	}()
	if err == nil && servingState(st) {
		m.admitLocked(day)
	}
	return st, err
}

// Remove permanently removes the machine from service.
func (m *Manager) Remove(machine string, day int, reason, actor string) (State, error) {
	return m.transition(machine, Removed, day, reason, actor)
}

// State returns the machine's record (ok=false if never seen — such
// machines are implicitly healthy).
func (m *Manager) State(machine string) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.machines[machine]
	if !ok {
		return Record{Machine: machine, State: Healthy, StateName: Healthy.String()}, false
	}
	return *r, true
}

// List returns every touched machine's record, sorted by machine id.
func (m *Manager) List() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.machines))
	for _, r := range m.machines {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// WALHealth returns the WAL's most recent append failure (nil when the
// log is healthy or the ledger is memory-only) — the daemon's readiness
// signal for "able to durably accept reports".
func (m *Manager) WALHealth() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil
	}
	return m.wal.Err()
}

// HasWAL reports whether the ledger is backed by a write-ahead log.
func (m *Manager) HasWAL() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wal != nil
}

// SetObserver attaches (or replaces) the transition observer. The daemon
// uses this to attach notification hooks after Open, so a replayed log
// does not re-fire notifications for history.
func (m *Manager) SetObserver(fn func(Transition)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opts.Observer = fn
}

// CountByState tallies the ledger by state.
func (m *Manager) CountByState() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[State]int{}
	for _, r := range m.machines {
		out[r.State]++
	}
	return out
}
