package fleet

// Mid-run event hooks for the scenario runner (internal/scenario): defect
// injection, maintenance drains, fleet-wide operating-point changes, and
// switching the optional workload phases on and off between days.
//
// Every hook mutates fleet state and MUST be called from the goroutine
// that owns the fleet, between Step calls — never concurrently with one.
// Hooks that consume randomness fork the master stream serially, so a
// fixed event timeline keeps the bit-identical-at-any-parallelism
// determinism contract: worker count shards days, never events.

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// OperatingPoint returns the fleet-wide operating point.
func (f *Fleet) OperatingPoint() fault.OperatingPoint { return f.point }

// MachineID is the id of the i-th machine ("m00017"), the one format
// newFleet names machines with.
func MachineID(i int) string { return fmt.Sprintf("m%05d", i) }

// ParseMachineID returns the index of a machine id. Only an id MachineID
// produces is accepted: "m1" and "m+1" are not other spellings of
// m00001, because ledgers and defect sites compare ids as strings.
func ParseMachineID(id string) (int, error) {
	if len(id) < 2 || id[0] != 'm' {
		return 0, fmt.Errorf("machine id %q must look like m00017", id)
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 || MachineID(n) != id {
		return 0, fmt.Errorf("machine id %q must look like m00017", id)
	}
	return n, nil
}

// lookupMachine resolves a machine id with validation — unlike the
// hot-path machineByID, malformed or out-of-range ids return an error
// instead of corrupting the index arithmetic.
func (f *Fleet) lookupMachine(id string) (*Machine, error) {
	n, err := ParseMachineID(id)
	if err != nil {
		return nil, fmt.Errorf("fleet: %v", err)
	}
	if n >= len(f.machines) {
		return nil, fmt.Errorf("fleet: no machine %q (fleet has %d)", id, len(f.machines))
	}
	return f.machines[n], nil
}

// InjectDefect materializes defect d on (machine, core) at the current
// simulated day — silicon that was healthy until now starts carrying a
// flaw, the recidivist/aging shapes of §2. d.Onset is interpreted as a
// delay from the injection instant (not an install age): zero means the
// defect can fire today. The core must currently be healthy; injecting
// over an existing defect is an error (repair it first — after
// retireDefect the core is healthy again and injectable).
func (f *Fleet) InjectDefect(machineID string, core int, d fault.Defect) error {
	m, err := f.lookupMachine(machineID)
	if err != nil {
		return err
	}
	if core < 0 || core >= f.cfg.CoresPerMachine {
		return fmt.Errorf("fleet: core %d out of range [0, %d)", core, f.cfg.CoresPerMachine)
	}
	if _, dup := m.Defective[core]; dup {
		return fmt.Errorf("fleet: core %s/%d is already defective", machineID, core)
	}
	now := simtime.Time(f.day) * simtime.Day
	delay := d.Onset
	// Rebase onset from injection-relative to the install-age clock the
	// rate model runs on.
	d.Onset = (now - m.install) + delay
	if d.ID == "" {
		d.ID = fmt.Sprintf("INJ-%s-c%02d-d%04d", machineID, core, f.day)
	}
	if d.Class == "" {
		d.Class = "injected"
	}
	coreName := fmt.Sprintf("%s/c%02d", machineID, core)
	fc := fault.NewCore(coreName, f.rng.ForkString("inject:"+coreName), d)
	fc.Point = f.point
	m.Defective[core] = fc
	site := &DefectSite{
		Machine: machineID, Core: core, Site: fc,
		FirstActive: now + delay,
	}
	f.defects = append(f.defects, site)
	f.siteMachines = append(f.siteMachines, m)
	// The ground-truth census event. Day 0 is traced by traceDefects'
	// population sweep, which runs after day-0 events apply.
	if f.trace != nil && f.day > 0 {
		f.trace.Emit(obs.TraceEvent{
			Day: f.day, Machine: machineID, Core: core,
			Event:          obs.EventDefectPresent,
			FirstActiveSec: float64(site.FirstActive),
		})
	}
	return nil
}

// InjectDefectClass samples a defect from the named catalog class and
// injects it, with the class's sampled onset treated as a delay from
// injection (late-onset classes stay latent for years of simulated time).
func (f *Fleet) InjectDefectClass(machineID string, core int, class string) error {
	spec, err := fault.ClassByName(class)
	if err != nil {
		return err
	}
	coreName := fmt.Sprintf("%s/c%02d", machineID, core)
	rng := f.rng.ForkString("inject-class:" + coreName)
	d := spec.Sample(fmt.Sprintf("INJ-%s-d%04d", coreName, f.day), rng)
	d.ID = "" // InjectDefect assigns the canonical id
	return f.InjectDefect(machineID, core, d)
}

// DrainMachine takes a machine out of service for maintenance: its tasks
// are evicted, its cores stop running workload and screening, and its
// defects stop corrupting. Accumulated suspect evidence is kept — a
// maintenance drain is not an exoneration. Draining a drained machine is
// a no-op.
func (f *Fleet) DrainMachine(id string) error {
	m, err := f.lookupMachine(id)
	if err != nil {
		return err
	}
	if m.cluster.Drained() {
		return nil
	}
	// Pool budget first: a maintenance drain that would breach the
	// machine's pool floor is deferred — the durable intent is queued and
	// the machine keeps serving until repaired capacity readmits it.
	if f.life != nil && f.life.DrainWouldDefer(id) {
		return f.life.DeferDrain(id, f.day, "maintenance", "operator", 0)
	}
	if _, err := f.cluster.Drain(id); err != nil {
		return err
	}
	// Record the maintenance drain in the lifecycle ledger when the
	// control plane is on. Best-effort: a ledger oddity (say, the machine
	// was already removed) must not undo the cluster drain above.
	if f.life != nil {
		if st, _ := f.life.Drain(id, f.day, "maintenance", "operator"); st == lifecycle.Draining {
			f.life.MarkDrained(id, f.day, "operator")
		}
	}
	return nil
}

// UndrainMachine returns a drained machine to service with its silicon —
// including any defects — intact. Undraining an in-service machine is a
// no-op.
func (f *Fleet) UndrainMachine(id string) error {
	m, err := f.lookupMachine(id)
	if err != nil {
		return err
	}
	if !m.cluster.Drained() {
		return nil
	}
	if err := f.cluster.Undrain(id); err != nil {
		return err
	}
	if f.life != nil {
		// Reintroduce is an idempotent no-op for ledger-healthy machines;
		// errors (e.g. a removed machine) are deliberately not fatal here —
		// the cluster state above is authoritative for the simulator.
		f.life.Reintroduce(id, f.day, "maintenance complete", "operator")
	}
	return nil
}

// CordonMachine stops new placements on the machine while its running
// tasks continue — the operator's light-touch isolation verb (contrast
// DrainMachine, which evicts). With the control plane enabled, the
// cordon is recorded in the lifecycle ledger, where a machine past its
// repair budget escalates to permanent removal. Cordoning a cordoned
// machine is a no-op.
func (f *Fleet) CordonMachine(id string) error {
	if _, err := f.lookupMachine(id); err != nil {
		return err
	}
	// Pool budget first, as in DrainMachine: a cordon also removes the
	// machine from its pool's serving set.
	if f.life != nil && f.life.DrainWouldDefer(id) {
		return f.life.DeferCordon(id, f.day, "operator cordon", "operator", 0)
	}
	if err := f.cluster.Cordon(id); err != nil {
		return err
	}
	if f.life != nil {
		if _, err := f.life.Cordon(id, f.day, "operator cordon", "operator"); err != nil {
			return err
		}
	}
	return nil
}

// ReleaseMachine lifts a cordon: the machine schedules new work again
// and, with the control plane enabled, returns to healthy in the
// lifecycle ledger. Releasing an uncordoned machine is a no-op.
func (f *Fleet) ReleaseMachine(id string) error {
	if _, err := f.lookupMachine(id); err != nil {
		return err
	}
	if err := f.cluster.Uncordon(id); err != nil {
		return err
	}
	if f.life != nil {
		if _, err := f.life.Reintroduce(id, f.day, "operator release", "operator"); err != nil {
			return err
		}
	}
	return nil
}

// SetOperatingPoint moves the whole fleet to a new (f, V, T) point — the
// §5 experiment of running suspect populations at corners. Every
// materialized core (and every core injected later) computes its
// activation rates at the new point from the next day on.
func (f *Fleet) SetOperatingPoint(pt fault.OperatingPoint) {
	f.point = pt
	for _, site := range f.defects {
		if site.Repaired {
			continue
		}
		site.Site.Point = pt
	}
}

// StartKVLoad switches the tolerant key-value workload phase on; it is
// the phase's one switch, at day 0 or mid-run. The stores fork their
// streams from the master RNG at the call, so a given start day yields
// the same stores at any parallelism. Starting while a KV load is active
// is an error; stop the old one first.
func (f *Fleet) StartKVLoad(cfg KVDBConfig) error {
	if len(f.kvStores) > 0 {
		return fmt.Errorf("fleet: kv load already running")
	}
	if cfg.Stores <= 0 {
		return fmt.Errorf("fleet: kv load needs stores > 0")
	}
	f.kvCfg = cfg.withDefaults()
	f.buildKVStores()
	return nil
}

// StopKVLoad tears the KV workload phase down; stopping when none is
// running is a no-op.
func (f *Fleet) StopKVLoad() {
	f.kvCfg = KVDBConfig{}
	f.kvStores = nil
	f.kvAvoid = nil
}

// StartTaskRun switches the checkpoint/retry batch workload phase on; it
// is the phase's one switch, at day 0 or mid-run. Starting while one is
// active is an error.
func (f *Fleet) StartTaskRun(cfg TaskRunConfig) error {
	if f.taskSup != nil {
		return fmt.Errorf("fleet: taskrun workload already running")
	}
	if cfg.Tasks <= 0 {
		return fmt.Errorf("fleet: taskrun workload needs tasks > 0")
	}
	f.taskCfg = cfg.withDefaults()
	f.buildTaskRun()
	return nil
}

// StopTaskRun tears the batch workload phase down; stopping when none is
// running is a no-op.
func (f *Fleet) StopTaskRun() {
	f.taskCfg = TaskRunConfig{}
	f.taskSup = nil
}
