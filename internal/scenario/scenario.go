// Package scenario makes mercurial-core incidents first-class,
// regression-testable artifacts: a declarative scenario (fleet
// definition, seed, timed events such as inject_defect / drain_machine /
// start_kv_load / start_taskrun, and end-state assertions over the daily
// telemetry, the quarantine ledger, and the metrics registry) is decoded
// from a dependency-free YAML-subset/JSON file, validated with
// line-numbered errors (all of them at once, sorted by line), and
// compiled onto the existing fleet.Runner machinery — preserving the
// bit-identical-at-any-parallelism determinism contract, because every
// event applies in a serial phase between simulated days.
//
// A knob is one struct field tagged `scn:"key"`: the fleet section and
// the start_kv_load and start_taskrun events decode straight onto
// fleet.DefaultConfig(), fleet.KVDBConfig and fleet.TaskRunConfig, whose
// fields carry the tags,
// and one reflective walker (decode.go) derives each section's key list,
// unknown-key check and type errors from them.
//
// The paper's observation (§2, §4) is that incidents are
// scenario-shaped: aging onset, f/V/T sensitivity, data-pattern-gated
// corruption, recidivist cores. Each of those shapes lives in
// scenarios/*.yaml as a runnable file whose assertions double as a
// regression suite.
package scenario

import (
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/quarantine"
	"repro/internal/remediate"
	"repro/internal/screen"
)

// Scenario is one declarative simulation: who the fleet is, what happens
// to it and when, and what must be true at the end.
type Scenario struct {
	// File is the source path ("" for generated scenarios); error and
	// assertion-failure messages are prefixed with it.
	File        string
	Name        string `scn:"name"`
	Description string `scn:"description"`
	// Seed overrides the fleet seed (nil keeps the default).
	Seed *uint64 `scn:"seed"`
	// Days is the simulated run length.
	Days   int        `scn:"days"`
	Fleet  FleetDef   `scn:"fleet"`
	Events []Event    `scn:"events,as=event"`
	Assert Assertions `scn:"assert"`
}

// FleetDef is the fleet section: fleet.Config's tagged knobs, decoded
// onto fleet.DefaultConfig() (Machines and CoresPerMachine are required),
// plus the sub-sections whose shape differs from the config's. Policy,
// SKUs and Lifecycle shadow the Config fields Compile fills from them.
type FleetDef struct {
	fleet.Config
	Policy     *PolicyDef     `scn:"policy,as=policy"`
	Confession *ConfessionDef `scn:"confession"`
	SKUs       []SKUDef       `scn:"skus,as=sku"`
	Lifecycle  *LifecycleDef  `scn:"lifecycle"`
}

// PolicyDef is the quarantine policy section: the mode by name and the
// retry delay in days, over the fleet default policy.
type PolicyDef struct {
	ModeName         string   `scn:"mode"` // machine-drain | core-removal | safe-tasks
	DeclineRetryDays *float64 `scn:"decline_retry_days"`
}

// ConfessionDef tunes the deep confession screen (screen.Config's tagged
// knobs on the fleet default).
type ConfessionDef struct{ screen.Config }

func (c *ConfessionDef) setDefaults() { c.Config = fleet.DefaultConfig().ConfessionConfig }

// SKUDef is one CPU-product population.
type SKUDef struct{ fleet.SKU }

// LifecycleDef is the machine-lifecycle control-plane section: the knobs
// of fleet.LifecycleConfig and fleet.RemediateConfig, plus the run-scoped
// resources Run builds. Pools shadows LifecycleConfig.Pools.
type LifecycleDef struct {
	fleet.LifecycleConfig
	// WAL persists the ledger to a run-private write-ahead log opened
	// through the chaos fault seam. Required by inject_wal_fault events;
	// the runner checks replay-equality (replayed ledger == live ledger)
	// at end of run as an implicit invariant.
	WAL bool `scn:"wal"`
	// Pools declares capacity pools with serving floors; machines stripe
	// across them round-robin.
	Pools []PoolDef `scn:"pools,as=pool"`
	// Policy (default, escalating, swap) and its knobs.
	fleet.RemediateConfig
	// Notify hangs a notifier off the ledger: "log" (line sink) or
	// "webhook" (in-process collector behind the chaos transport, enabling
	// inject_network_fault events and the notify_* assert quantities).
	Notify string `scn:"notify"`
}

// PoolDef is one capacity pool: the effective serving floor is
// max(min_healthy_count, ceil(min_healthy × members)).
type PoolDef struct {
	lifecycle.PoolConfig
	Line int
}

// KVDef is start_kv_load's body, the tolerant-kvdb workload phase's one
// switch (a day-0 event runs it from the start).
type KVDef struct{ fleet.KVDBConfig }

// TaskRunDef is start_taskrun's body, the checkpoint/retry workload
// phase's one switch.
type TaskRunDef struct{ fleet.TaskRunConfig }

// Event kinds. Exactly one action is present per event.
const (
	EvInjectDefect      = "inject_defect"
	EvDrainMachine      = "drain_machine"
	EvUndrainMachine    = "undrain_machine"
	EvCordonMachine     = "cordon_machine"
	EvReleaseMachine    = "release_machine"
	EvSetOperatingPoint = "set_operating_point"
	EvStartKVLoad       = "start_kv_load"
	EvStopKVLoad        = "stop_kv_load"
	EvStartTaskRun      = "start_taskrun"
	EvStopTaskRun       = "stop_taskrun"
	EvInjectWALFault    = "inject_wal_fault"
	EvInjectNetFault    = "inject_network_fault"
)

var eventKinds = []string{
	EvInjectDefect, EvDrainMachine, EvUndrainMachine, EvCordonMachine,
	EvReleaseMachine, EvSetOperatingPoint,
	EvStartKVLoad, EvStopKVLoad, EvStartTaskRun, EvStopTaskRun,
	EvInjectWALFault, EvInjectNetFault,
}

// Event is one timed action, applied serially before the Step of Day.
type Event struct {
	Day  int
	Line int
	Kind string

	Inject     *InjectDef   // inject_defect
	machineRef              // drain/undrain/cordon/release_machine
	Point      *PointDef    // set_operating_point
	KV         *KVDef       // start_kv_load
	TaskRun    *TaskRunDef  // start_taskrun
	WALFault   *WALFaultDef // inject_wal_fault
	NetFault   *NetFaultDef // inject_network_fault
}

type machineRef struct {
	Machine string `scn:"machine"`
}

// WALFaultDef arms the chaos filesystem under the lifecycle WAL: the next
// Count operations of the named kind fail deterministically.
type WALFaultDef struct {
	// Kind is fail_write, torn_write, fail_sync, fail_truncate, enospc,
	// or enospc_clear (the sticky disk-full toggle ignores Count).
	Kind  string `scn:"kind"`
	Count int    `scn:"count"`
}

func (w *WALFaultDef) setDefaults() { w.Count = 1 }

// walFaultKinds is the inject_wal_fault vocabulary.
var walFaultKinds = []string{
	"fail_write", "torn_write", "fail_sync", "fail_truncate",
	"enospc", "enospc_clear",
}

// NetFaultDef queues Count faults of the named kind on the chaos
// transport under the webhook notifier.
type NetFaultDef struct {
	// Kind is drop, reset, http500, http503, or delay
	// (chaos.NetFaultByName).
	Kind  string `scn:"kind"`
	Count int    `scn:"count"`
}

func (nf *NetFaultDef) setDefaults() { nf.Count = 1 }

// InjectDef materializes a new defective core mid-run — either sampled
// from a catalog class, or built field-by-field (§2 incident
// reproductions pin the exact corruption shape).
type InjectDef struct {
	Machine string `scn:"machine"`
	Core    int    `scn:"core"`
	// Class samples from the fault catalog; when set, the explicit
	// fields below must be absent.
	Class string `scn:"class"`
	// Explicit defect.
	Unit            string  `scn:"unit"`
	Kind            string  `scn:"kind"`
	BaseRate        float64 `scn:"base_rate"`
	Deterministic   bool    `scn:"deterministic"`
	BitPos          *int    `scn:"bit_pos"`
	StuckVal        *int    `scn:"stuck_val"`
	Mask            uint64  `scn:"mask"`
	Delta           int64   `scn:"delta"`
	PatternMask     uint64  `scn:"pattern_mask"`
	PatternVal      uint64  `scn:"pattern_val"`
	OnsetDays       float64 `scn:"onset_days"`
	EscalatePerYear float64 `scn:"escalate_per_year"`
	FreqSens        float64 `scn:"freq_sens"`
	VoltSens        float64 `scn:"volt_sens"`
	TempSens        float64 `scn:"temp_sens"`
}

func (in *InjectDef) setDefaults() { in.Core, in.EscalatePerYear = -1, 1 }

// PointDef overrides parts of the fleet-wide operating point; absent
// fields keep their current value.
type PointDef struct {
	FreqGHz  *float64 `scn:"freq_ghz"`
	VoltageV *float64 `scn:"voltage_v"`
	TempC    *float64 `scn:"temp_c"`
}

// ---- loading ----

// Load reads, parses, and validates a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// Parse decodes and validates a scenario from data; name prefixes every
// error ("name:line: message"). All schema errors are collected and
// reported together, sorted by line, not one at a time.
func Parse(name string, data []byte) (*Scenario, error) {
	root, err := parseDocument(name, data)
	if err != nil {
		return nil, err
	}
	cfg := fleet.DefaultConfig()
	cfg.Machines, cfg.CoresPerMachine = 0, 0 // required: no default
	s := &Scenario{Fleet: FleetDef{Config: cfg}}
	d := &decoder{name: name, s: s, failed: map[*node]bool{}}
	if d.asMap(root, "document") != nil {
		d.decodeStruct(root, reflect.ValueOf(s).Elem(), "", "scenario")
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	s.File = name
	return s, nil
}

// ---- validation: the checks that span fields ----

func (s *Scenario) validate(d *decoder, m *node, _ string) {
	if s.Name == "" {
		d.errf(m.line, "scenario.name is required")
	}
	d.positive(m, "scenario", "days", s.Days)
	if m.child("fleet") == nil {
		d.errf(m.line, "scenario.fleet is required")
	}
	lc := s.Fleet.Lifecycle
	lcOn := lc != nil && lc.Enabled
	if len(s.Assert.MachineStates) > 0 && !lcOn {
		d.errf(s.Assert.MachineStates[0].Line, "assert.machine_states requires fleet.lifecycle.enabled: true")
	}
	if lc != nil && !lc.Enabled &&
		(lc.WAL || len(lc.Pools) > 0 || lc.Policy != "" || lc.Notify != "") {
		d.errf(m.keyLine("fleet"), "fleet.lifecycle options (wal, pools, policy, notify) require enabled: true")
	}
	for _, ev := range s.Events {
		switch {
		case ev.Kind == EvInjectWALFault && !(lcOn && lc.WAL):
			d.errf(ev.Line, "inject_wal_fault requires fleet.lifecycle.wal: true")
		case ev.Kind == EvInjectNetFault && !(lcOn && lc.Notify == "webhook"):
			d.errf(ev.Line, "inject_network_fault requires fleet.lifecycle.notify: webhook")
		}
	}
	for _, ms := range s.Assert.MachineStates {
		s.checkInFleet(d, ms.Line, "assert.machine_states", ms.Machine)
	}
	s.checkCoreRefs(d, "assert.quarantined_cores", s.Assert.QuarantinedCores)
	s.checkCoreRefs(d, "assert.not_quarantined_cores", s.Assert.NotQuarantinedCores)
}

// checkCoreRefs range-checks core refs against the fleet's shape.
func (s *Scenario) checkCoreRefs(d *decoder, what string, refs []CoreAssert) {
	for _, ca := range refs {
		s.checkInFleet(d, ca.Line, what, ca.Machine)
		if cores := s.Fleet.CoresPerMachine; cores > 0 && ca.Core >= cores {
			d.errf(ca.Line, "%s: core %d out of range [0, %d)", what, ca.Core, cores)
		}
	}
}

// checkInFleet reports a well-formed machine id the fleet does not have;
// the decoder has already reported a malformed one.
func (s *Scenario) checkInFleet(d *decoder, line int, what, id string) {
	if idx, err := fleet.ParseMachineID(id); err == nil && s.Fleet.Machines > 0 && idx >= s.Fleet.Machines {
		d.errf(line, "%s: machine %q outside the fleet (machines: %d)", what, id, s.Fleet.Machines)
	}
}

func (f *FleetDef) validate(d *decoder, m *node, _ string) {
	d.positive(m, "fleet", "machines", f.Machines)
	d.positive(m, "fleet", "cores_per_machine", f.CoresPerMachine)
	d.nonNegative(m, "fleet", "defects_per_machine", f.DefectsPerMachine)
	d.nonNegative(m, "fleet", "software_bug_signals_per_machine_day", f.SoftwareBugSignalsPerMachineDay)
	if !(f.UserReportFraction >= 0 && f.UserReportFraction <= 1) {
		d.errf(m.keyLine("user_report_fraction"), "fleet.user_report_fraction must be in [0, 1]")
	}
	d.nonNegative(m, "fleet", "repair_after_days", float64(f.RepairAfterDays))
}

var policyModes = map[string]quarantine.Mode{
	"machine-drain": quarantine.MachineDrain,
	"core-removal":  quarantine.CoreRemoval,
	"safe-tasks":    quarantine.SafeTasks,
}

func (p *PolicyDef) validate(d *decoder, m *node, _ string) {
	if _, ok := policyModes[p.ModeName]; d.given(m, "mode") && !ok {
		d.errf(m.keyLine("mode"), "policy.mode %q unknown (machine-drain, core-removal, safe-tasks)", p.ModeName)
	}
}

func (s *SKUDef) validate(d *decoder, m *node, _ string) {
	if s.Name == "" {
		d.errf(m.line, "sku.name is required")
	}
	if s.Fraction <= 0 {
		d.errf(m.keyLine("fraction"), "sku.fraction must be > 0")
	}
}

func (lc *LifecycleDef) validate(d *decoder, m *node, path string) {
	d.nonNegative(m, path, "max_repairs", float64(lc.MaxRepairs))
	d.nonNegative(m, path, "probation_days", float64(lc.ProbationDays))
	if d.given(m, "policy") {
		// An explicit empty name is a typo, not a request for the default.
		if _, err := remediate.ByName(lc.Policy); err != nil || lc.Policy == "" {
			d.errf(m.keyLine("policy"), "fleet.lifecycle.policy %q unknown (default, escalating, swap)", lc.Policy)
		}
	}
	d.nonNegative(m, path, "score_threshold", lc.ScoreThreshold)
	d.nonNegative(m, path, "max_retests", float64(lc.MaxRetests))
	d.nonNegative(m, path, "repair_tickets_per_pool", float64(lc.RepairTicketsPerPool))
	if d.given(m, "notify") && lc.Notify != "log" && lc.Notify != "webhook" {
		d.errf(m.keyLine("notify"), "fleet.lifecycle.notify %q unknown (log, webhook)", lc.Notify)
	}
	seen := map[string]bool{}
	for _, p := range lc.Pools {
		if p.Name != "" && seen[p.Name] {
			d.errf(p.Line, "duplicate pool %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func (p *PoolDef) validate(d *decoder, m *node, _ string) {
	if p.Name == "" {
		d.errf(m.line, "pool.name is required")
	}
	if d.given(m, "min_healthy") && (p.MinHealthy <= 0 || p.MinHealthy > 1) {
		d.errf(m.keyLine("min_healthy"), "pool.min_healthy must be in (0, 1]")
	}
	if p.MinHealthyCount < 0 {
		d.errf(m.keyLine("min_healthy_count"), "pool.min_healthy_count must be >= 0")
	}
	if !d.given(m, "min_healthy") && !d.given(m, "min_healthy_count") {
		d.errf(m.line, "pool %q needs min_healthy and/or min_healthy_count", p.Name)
	}
}

func (k *KVDef) validate(d *decoder, m *node, path string) {
	d.positive(m, path, "stores", k.Stores)
}

func (t *TaskRunDef) validate(d *decoder, m *node, path string) {
	d.positive(m, path, "tasks", t.Tasks)
}

// ---- events ----

// decodeScn decodes one events entry: a day plus exactly one action,
// whose body decodes onto the field of that kind.
func (ev *Event) decodeScn(d *decoder, n *node, path, name string) bool {
	m := d.asMap(n, path)
	if m == nil {
		return false
	}
	ev.Line = m.line
	if c := m.child("day"); c != nil {
		d.decodeInto(c, reflect.ValueOf(&ev.Day).Elem(), name+".day", "")
	} else {
		d.errf(m.line, "event.day is required")
	}
	if days := d.s.Days; ev.Day < 0 || (days > 0 && ev.Day >= days) {
		d.errf(m.keyLine("day"), "event.day %d out of range [0, %d)", ev.Day, days)
	}
	var actions []string
	for _, k := range m.keys {
		if slices.Contains(eventKinds, k) {
			actions = append(actions, k)
		}
	}
	if len(actions) != 1 {
		d.errf(m.line, "event must have exactly one action of %s (got %d)",
			strings.Join(eventKinds, ", "), len(actions))
		return false
	}
	ev.Kind = actions[0]
	d.known(m, name, "day", ev.Kind)
	var body interface{}
	switch ev.Kind {
	case EvInjectDefect:
		body = &ev.Inject
	case EvSetOperatingPoint:
		body = &ev.Point
	case EvStartKVLoad:
		body = &ev.KV
	case EvStartTaskRun:
		body = &ev.TaskRun
	case EvInjectWALFault:
		body = &ev.WALFault
	case EvInjectNetFault:
		body = &ev.NetFault
	case EvStopKVLoad, EvStopTaskRun:
		body = &struct{}{} // no parameters
	default:
		body = &ev.machineRef
	}
	d.decodeInto(m.child(ev.Kind), reflect.ValueOf(body).Elem(), ev.Kind, ev.Kind)
	return true
}

func (r *machineRef) validate(d *decoder, m *node, _ string) {
	d.checkMachine(m, r.Machine)
}

func (w *WALFaultDef) validate(d *decoder, m *node, _ string) {
	if !slices.Contains(walFaultKinds, w.Kind) {
		d.errf(m.keyLine("kind"), "inject_wal_fault.kind %q unknown (have %s)",
			w.Kind, strings.Join(walFaultKinds, ", "))
	}
	d.positive(m, EvInjectWALFault, "count", w.Count)
}

func (nf *NetFaultDef) validate(d *decoder, m *node, _ string) {
	if _, err := chaos.NetFaultByName(nf.Kind); err != nil {
		d.errf(m.keyLine("kind"), "inject_network_fault.kind: %v", err)
	}
	d.positive(m, EvInjectNetFault, "count", nf.Count)
}

func (d *decoder) checkMachine(m *node, id string) {
	if id == "" {
		d.errf(m.line, "machine is required")
		return
	}
	idx, err := fleet.ParseMachineID(id)
	if err != nil {
		d.errf(m.keyLine("machine"), "%v", err)
		return
	}
	if machines := d.s.Fleet.Machines; machines > 0 && idx >= machines {
		d.errf(m.keyLine("machine"), "machine %q outside the fleet (machines: %d)", id, machines)
	}
}

func (in *InjectDef) validate(d *decoder, m *node, _ string) {
	d.checkMachine(m, in.Machine)
	if cores := d.s.Fleet.CoresPerMachine; in.Core < 0 || (cores > 0 && in.Core >= cores) {
		d.errf(m.keyLine("core"), "inject_defect.core %d out of range [0, %d)", in.Core, cores)
	}
	if in.BitPos != nil && (*in.BitPos < 0 || *in.BitPos >= 64) {
		d.errf(m.keyLine("bit_pos"), "inject_defect.bit_pos %d out of range [0, 64)", *in.BitPos)
	}
	if in.StuckVal != nil && *in.StuckVal != 0 && *in.StuckVal != 1 {
		d.errf(m.keyLine("stuck_val"), "inject_defect.stuck_val %d must be 0 or 1", *in.StuckVal)
	}
	if in.Class != "" {
		if in.Unit != "" || in.Kind != "" || in.BaseRate != 0 || in.Deterministic {
			d.errf(m.keyLine("class"), "inject_defect: class and explicit defect fields are mutually exclusive")
		}
		if _, err := fault.ClassByName(in.Class); err != nil {
			d.errf(m.keyLine("class"), "inject_defect.class %q unknown (have %s)",
				in.Class, strings.Join(fault.ClassNames(), ", "))
		}
		return
	}
	if in.Unit == "" {
		d.errf(m.line, "inject_defect needs either class or an explicit unit")
		return
	}
	if _, err := fault.UnitByName(in.Unit); err != nil {
		d.errf(m.keyLine("unit"), "%v", err)
	}
	if in.Kind == "" {
		d.errf(m.line, "inject_defect: explicit defects need kind (bitflip, stuckbit, xormask, wronglane, dropupdate, prexor, offbyone)")
	} else if _, err := fault.KindByName(in.Kind); err != nil {
		d.errf(m.keyLine("kind"), "%v", err)
	}
	if in.BaseRate <= 0 && !in.Deterministic {
		d.errf(m.line, "inject_defect: explicit defects need base_rate > 0 or deterministic: true")
	}
}

// sortedEvents returns the events ordered by day, preserving file order
// within a day (sort.SliceStable keeps the determinism contract: event
// application order never depends on map iteration or timing).
func (s *Scenario) sortedEvents() []Event {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Day < evs[j].Day })
	return evs
}
