// Package sched provides the cluster-scheduler substrate that isolation
// policies act on: machines with per-core state, task placement, eviction,
// and capacity accounting.
//
// §6.1 notes that core-level isolation "undermines a scheduler assumption
// that all machines of a specific type have identical resources" — this
// scheduler makes per-core state (schedulable, restricted, offline) a
// first-class concept so that trade-off can be measured.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/fault"
)

// CoreState is the schedulability of one core.
type CoreState int

const (
	// CoreHealthy cores accept any task.
	CoreHealthy CoreState = iota
	// CoreRestricted cores accept only tasks that avoid the core's
	// banned execution units — §6.1's speculative safe-task placement.
	CoreRestricted
	// CoreOffline cores accept nothing (quarantined / surprise-removed).
	CoreOffline
)

func (s CoreState) String() string {
	switch s {
	case CoreHealthy:
		return "healthy"
	case CoreRestricted:
		return "restricted"
	case CoreOffline:
		return "offline"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// Task is a schedulable unit of work.
type Task struct {
	ID string
	// Units lists the execution units the task's code exercises; used
	// to match tasks against restricted cores.
	Units []fault.Unit
	// Critical tasks are the ones mitigation policies replicate.
	Critical bool
}

// uses reports whether the task exercises unit u.
func (t *Task) uses(u fault.Unit) bool {
	for _, x := range t.Units {
		if x == u {
			return true
		}
	}
	return false
}

// CoreRef names one core in the cluster.
type CoreRef struct {
	Machine string
	Core    int
}

func (r CoreRef) String() string { return fmt.Sprintf("%s/%d", r.Machine, r.Core) }

// coreSlot is the scheduler's per-core record.
type coreSlot struct {
	state  CoreState
	banned []fault.Unit // meaningful when state == CoreRestricted
	task   string       // occupying task ID, "" if idle
}

// Machine is one server.
type Machine struct {
	ID       string
	drained  bool
	cordoned bool
	cores    []coreSlot
}

// Drained reports whether the machine is removed from the pool.
func (m *Machine) Drained() bool { return m.drained }

// available reports whether the machine accepts new placements.
func (m *Machine) available() bool { return !m.drained && !m.cordoned }

// State returns the state of core i.
func (m *Machine) State(i int) CoreState { return m.cores[i].state }

// Cluster is the scheduler state. It is deterministic: placement iterates
// machines in insertion order and cores in index order.
type Cluster struct {
	machines map[string]*Machine
	order    []string
	// placement maps task ID to its core.
	placement map[string]CoreRef
	tasks     map[string]*Task
	// Migrations counts evict-and-replace events, the §6 cost of
	// draining workloads for offline screening.
	Migrations int
}

// NewCluster returns an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{
		machines:  map[string]*Machine{},
		placement: map[string]CoreRef{},
		tasks:     map[string]*Task{},
	}
}

// AddMachine registers a machine with the given core count.
func (c *Cluster) AddMachine(id string, cores int) (*Machine, error) {
	if _, dup := c.machines[id]; dup {
		return nil, fmt.Errorf("sched: duplicate machine %q", id)
	}
	if cores <= 0 {
		return nil, fmt.Errorf("sched: machine %q needs positive core count", id)
	}
	m := &Machine{ID: id, cores: make([]coreSlot, cores)}
	c.machines[id] = m
	c.order = append(c.order, id)
	return m, nil
}

// Machine returns the machine with the given ID, or nil.
func (c *Cluster) Machine(id string) *Machine { return c.machines[id] }

// Machines returns machine IDs in insertion order.
func (c *Cluster) Machines() []string {
	return append([]string(nil), c.order...)
}

// admissible reports whether task t may run on slot s.
func admissible(t *Task, s *coreSlot) bool {
	switch s.state {
	case CoreHealthy:
		return true
	case CoreRestricted:
		for _, u := range s.banned {
			if t.uses(u) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Place assigns the task to the first admissible idle core. Healthy cores
// are preferred over restricted ones, so safe-task placement consumes
// otherwise-stranded capacity last.
func (c *Cluster) Place(t *Task) (CoreRef, error) {
	if t.ID == "" {
		return CoreRef{}, fmt.Errorf("sched: task needs an ID")
	}
	if _, dup := c.placement[t.ID]; dup {
		return CoreRef{}, fmt.Errorf("sched: task %q already placed", t.ID)
	}
	for _, wantRestricted := range []bool{false, true} {
		for _, id := range c.order {
			m := c.machines[id]
			if !m.available() {
				continue
			}
			for i := range m.cores {
				s := &m.cores[i]
				if s.task != "" {
					continue
				}
				if (s.state == CoreRestricted) != wantRestricted {
					continue
				}
				if !admissible(t, s) {
					continue
				}
				s.task = t.ID
				ref := CoreRef{Machine: id, Core: i}
				c.placement[t.ID] = ref
				c.tasks[t.ID] = t
				return ref, nil
			}
		}
	}
	return CoreRef{}, fmt.Errorf("sched: no admissible core for task %q", t.ID)
}

// assign records task t on ref, which the caller has verified to be idle
// and admissible.
func (c *Cluster) assign(t *Task, ref CoreRef) {
	c.machines[ref.Machine].cores[ref.Core].task = t.ID
	c.placement[t.ID] = ref
	c.tasks[t.ID] = t
}

// PlaceAt assigns the task to one specific core, failing if that core is
// occupied, inadmissible, offline, or on a drained machine. Supervisors
// use it to pin a task's first granule onto a known core (e.g. suspect
// silicon under observation); on error the caller typically falls back to
// Place.
func (c *Cluster) PlaceAt(t *Task, ref CoreRef) (CoreRef, error) {
	if t.ID == "" {
		return CoreRef{}, fmt.Errorf("sched: task needs an ID")
	}
	if _, dup := c.placement[t.ID]; dup {
		return CoreRef{}, fmt.Errorf("sched: task %q already placed", t.ID)
	}
	m := c.machines[ref.Machine]
	if m == nil {
		return CoreRef{}, fmt.Errorf("sched: unknown machine %q", ref.Machine)
	}
	if m.drained {
		return CoreRef{}, fmt.Errorf("sched: machine %q is drained", ref.Machine)
	}
	if m.cordoned {
		return CoreRef{}, fmt.Errorf("sched: machine %q is cordoned", ref.Machine)
	}
	if ref.Core < 0 || ref.Core >= len(m.cores) {
		return CoreRef{}, fmt.Errorf("sched: machine %q has no core %d", ref.Machine, ref.Core)
	}
	s := &m.cores[ref.Core]
	if s.task != "" {
		return CoreRef{}, fmt.Errorf("sched: core %s occupied by task %q", ref, s.task)
	}
	if !admissible(t, s) {
		return CoreRef{}, fmt.Errorf("sched: core %s (%s) not admissible for task %q",
			ref, s.state, t.ID)
	}
	c.assign(t, ref)
	return ref, nil
}

// FindIdle returns the first idle admissible core for t in Place's scan
// order (healthy before restricted), skipping cores for which avoid
// returns true. It does not mutate the cluster — supervisors use it to
// probe for a verifier core without committing a placement.
func (c *Cluster) FindIdle(t *Task, avoid func(CoreRef) bool) (CoreRef, bool) {
	for _, wantRestricted := range []bool{false, true} {
		for _, id := range c.order {
			m := c.machines[id]
			if !m.available() {
				continue
			}
			for i := range m.cores {
				s := &m.cores[i]
				if s.task != "" {
					continue
				}
				if (s.state == CoreRestricted) != wantRestricted {
					continue
				}
				if !admissible(t, s) {
					continue
				}
				ref := CoreRef{Machine: id, Core: i}
				if avoid != nil && avoid(ref) {
					continue
				}
				return ref, true
			}
		}
	}
	return CoreRef{}, false
}

// IdleCores returns every idle admissible core for t in Place's scan
// order (healthy before restricted). It does not mutate the cluster;
// supervisors rank the candidates by their own health evidence.
func (c *Cluster) IdleCores(t *Task) []CoreRef {
	var out []CoreRef
	for _, wantRestricted := range []bool{false, true} {
		for _, id := range c.order {
			m := c.machines[id]
			if !m.available() {
				continue
			}
			for i := range m.cores {
				s := &m.cores[i]
				if s.task != "" {
					continue
				}
				if (s.state == CoreRestricted) != wantRestricted {
					continue
				}
				if !admissible(t, s) {
					continue
				}
				out = append(out, CoreRef{Machine: id, Core: i})
			}
		}
	}
	return out
}

// MigrateAvoid evicts the task and re-places it on an admissible core for
// which avoid returns false — §7's retry-on-a-different-core, where
// returning to the core that just diverged would be pointless. When every
// other admissible core is taken it degrades to a plain Migrate (capacity
// over health: the task may land back where it was). Counts the migration.
func (c *Cluster) MigrateAvoid(taskID string, avoid func(CoreRef) bool) (CoreRef, error) {
	cur, ok := c.placement[taskID]
	if !ok {
		return CoreRef{}, fmt.Errorf("sched: task %q not placed", taskID)
	}
	t := c.tasks[taskID]
	dst, found := c.FindIdle(t, func(r CoreRef) bool {
		return r == cur || (avoid != nil && avoid(r))
	})
	if !found {
		return c.Migrate(taskID)
	}
	c.remove(taskID)
	c.Migrations++
	c.assign(t, dst)
	return dst, nil
}

// Lookup returns the placement of a task.
func (c *Cluster) Lookup(taskID string) (CoreRef, bool) {
	ref, ok := c.placement[taskID]
	return ref, ok
}

// TaskOn returns the task ID occupying ref, or "".
func (c *Cluster) TaskOn(ref CoreRef) string {
	m := c.machines[ref.Machine]
	if m == nil || ref.Core < 0 || ref.Core >= len(m.cores) {
		return ""
	}
	return m.cores[ref.Core].task
}

// remove clears a task's placement and returns the task.
func (c *Cluster) remove(taskID string) *Task {
	ref, ok := c.placement[taskID]
	if !ok {
		return nil
	}
	m := c.machines[ref.Machine]
	m.cores[ref.Core].task = ""
	delete(c.placement, taskID)
	t := c.tasks[taskID]
	delete(c.tasks, taskID)
	return t
}

// Finish removes a completed task from the cluster.
func (c *Cluster) Finish(taskID string) { c.remove(taskID) }

// Migrate evicts the task and re-places it elsewhere, counting the
// migration. Returns the new placement.
func (c *Cluster) Migrate(taskID string) (CoreRef, error) {
	t := c.remove(taskID)
	if t == nil {
		return CoreRef{}, fmt.Errorf("sched: task %q not placed", taskID)
	}
	c.Migrations++
	return c.Place(t)
}

// SetCoreState transitions a core's state. Any occupying task is evicted
// and returned so the caller can re-place it (if the new state no longer
// admits it). banned applies only to CoreRestricted.
func (c *Cluster) SetCoreState(ref CoreRef, state CoreState, banned []fault.Unit) (evicted *Task, err error) {
	m := c.machines[ref.Machine]
	if m == nil {
		return nil, fmt.Errorf("sched: unknown machine %q", ref.Machine)
	}
	if ref.Core < 0 || ref.Core >= len(m.cores) {
		return nil, fmt.Errorf("sched: machine %q has no core %d", ref.Machine, ref.Core)
	}
	s := &m.cores[ref.Core]
	s.state = state
	s.banned = append([]fault.Unit(nil), banned...)
	if s.task == "" {
		return nil, nil
	}
	t := c.tasks[s.task]
	if admissible(t, s) {
		return nil, nil
	}
	return c.remove(t.ID), nil
}

// Drain removes a whole machine from the pool, evicting every task on it.
// This is the coarse isolation of §6.1 ("relatively simple ... to remove a
// machine from the resource pool").
func (c *Cluster) Drain(machineID string) ([]*Task, error) {
	m := c.machines[machineID]
	if m == nil {
		return nil, fmt.Errorf("sched: unknown machine %q", machineID)
	}
	m.drained = true
	var evicted []*Task
	for i := range m.cores {
		if id := m.cores[i].task; id != "" {
			evicted = append(evicted, c.remove(id))
		}
	}
	return evicted, nil
}

// Undrain returns a machine to the pool.
func (c *Cluster) Undrain(machineID string) error {
	m := c.machines[machineID]
	if m == nil {
		return fmt.Errorf("sched: unknown machine %q", machineID)
	}
	m.drained = false
	return nil
}

// Cordon stops new placements on a machine without evicting its tasks —
// the lifecycle control plane's gentle first isolation step. Idempotent.
func (c *Cluster) Cordon(machineID string) error {
	m := c.machines[machineID]
	if m == nil {
		return fmt.Errorf("sched: unknown machine %q", machineID)
	}
	m.cordoned = true
	return nil
}

// Uncordon re-admits a machine for new placements. Idempotent.
func (c *Cluster) Uncordon(machineID string) error {
	m := c.machines[machineID]
	if m == nil {
		return fmt.Errorf("sched: unknown machine %q", machineID)
	}
	m.cordoned = false
	return nil
}

// Capacity summarizes cluster capacity, the currency of experiment E6.
type Capacity struct {
	TotalCores       int
	Schedulable      int // healthy cores on undrained machines
	Restricted       int // safe-task-only cores
	Offline          int // quarantined cores
	DrainedCores     int // cores lost to machine drains
	OccupiedCores    int
	DrainedMachines  int
	CordonedMachines int // machines rejecting new placements (tasks still running)
}

// Capacity computes the current capacity summary.
func (c *Cluster) Capacity() Capacity {
	var cap Capacity
	for _, id := range c.order {
		m := c.machines[id]
		cap.TotalCores += len(m.cores)
		if m.drained {
			cap.DrainedMachines++
			cap.DrainedCores += len(m.cores)
			continue
		}
		if m.cordoned {
			cap.CordonedMachines++
		}
		for i := range m.cores {
			s := &m.cores[i]
			switch s.state {
			case CoreHealthy:
				cap.Schedulable++
			case CoreRestricted:
				cap.Restricted++
			case CoreOffline:
				cap.Offline++
			}
			if s.task != "" {
				cap.OccupiedCores++
			}
		}
	}
	return cap
}

// PlacedTasks returns all placed task IDs, sorted.
func (c *Cluster) PlacedTasks() []string {
	out := make([]string, 0, len(c.placement))
	for id := range c.placement {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
