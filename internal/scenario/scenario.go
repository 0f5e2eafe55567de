// Package scenario makes mercurial-core incidents first-class,
// regression-testable artifacts: a declarative scenario (fleet
// definition, seed, timed events such as inject_defect / drain_machine /
// start_kv_load / start_taskrun, and end-state assertions over the daily
// telemetry, the quarantine ledger, and the metrics registry) is decoded
// from a dependency-free YAML-subset/JSON file, validated with
// line-numbered errors, and compiled onto the existing fleet.Runner
// machinery — preserving the bit-identical-at-any-parallelism
// determinism contract, because every event applies in a serial phase
// between simulated days.
//
// The paper's observation (§2, §4) is that incidents are
// scenario-shaped: aging onset, f/V/T sensitivity, data-pattern-gated
// corruption, recidivist cores. Each of those shapes lives in
// scenarios/*.yaml as a runnable file whose assertions double as a
// regression suite.
package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/fault"
)

// Scenario is one declarative simulation: who the fleet is, what happens
// to it and when, and what must be true at the end.
type Scenario struct {
	// File is the source path ("" for generated scenarios); error and
	// assertion-failure messages are prefixed with it.
	File        string
	Name        string
	Description string
	// Seed overrides the fleet seed (nil keeps the default).
	Seed *uint64
	// Days is the simulated run length.
	Days int
	// Parallelism is the default worker count (0 = GOMAXPROCS); the CLI
	// -parallelism flag overrides it. Results never depend on it.
	Parallelism int
	Fleet       FleetDef
	Workloads   Workloads
	Events      []Event
	Assert      Assertions
}

// FleetDef shapes the simulated fleet. Machines and Cores are required;
// every other field is an optional override of fleet.DefaultConfig.
type FleetDef struct {
	Machines int
	Cores    int

	DefectsPerMachine        *float64
	DailyOpsPerCore          *float64
	PImmediateDetect         *float64
	PCrash                   *float64
	PMCE                     *float64
	PLateDetect              *float64
	PCoreAttribution         *float64
	SoftwareBugSignalsPerDay *float64
	UserReportFraction       *float64
	ScreenOpsPerCoreDay      *uint64
	InitialCorpus            *int
	CorpusGrowEveryDays      *int
	MaxSignalsPerCoreDay     *int
	RepairAfterDays          *int

	Policy     *PolicyDef
	Confession *ConfessionDef
	SKUs       []SKUDef
	Lifecycle  *LifecycleDef
}

// LifecycleDef is the machine-lifecycle control-plane section; it maps
// onto fleet.LifecycleConfig and fleet.RemediateConfig.
type LifecycleDef struct {
	Enabled       bool
	MaxRepairs    *int
	ProbationDays *int

	// WAL persists the ledger to a run-private write-ahead log opened
	// through the chaos fault seam. Required by inject_wal_fault events;
	// the runner checks replay-equality (replayed ledger == live ledger)
	// at end of run as an implicit invariant.
	WAL bool
	// Pools declares capacity pools with serving floors; machines stripe
	// across them round-robin.
	Pools []PoolDef
	// Policy names the remediation policy: default, escalating, or swap.
	Policy               string
	ScoreThreshold       *float64
	MaxRetests           *int
	RepairTicketsPerPool *int
	// Notify hangs a notifier off the ledger: "log" (line sink) or
	// "webhook" (in-process collector behind the chaos transport, enabling
	// inject_network_fault events and the notify_* assert quantities).
	Notify string
}

// PoolDef is one capacity pool: the effective serving floor is
// max(min_healthy_count, ceil(min_healthy × members)).
type PoolDef struct {
	Name            string
	MinHealthy      *float64
	MinHealthyCount *int
	Line            int
}

// PolicyDef is the quarantine policy section.
type PolicyDef struct {
	Mode              string // machine-drain | core-removal | safe-tasks
	MinScore          *float64
	RequireConfession *bool
	DeclineRetryDays  *float64
}

// ConfessionDef tunes the deep confession screen.
type ConfessionDef struct {
	Passes *int
	MaxOps *uint64
}

// SKUDef is one CPU-product population.
type SKUDef struct {
	Name             string
	Fraction         float64
	DefectMultiplier float64
	PreAgeDays       float64
}

// Workloads are the application phases active from day 0. The same
// shapes can instead be switched on mid-run by start_kv_load /
// start_taskrun events.
type Workloads struct {
	KVDB    *KVDef
	TaskRun *TaskRunDef
}

// KVDef mirrors fleet.KVDBConfig.
type KVDef struct {
	Stores       int
	Replicas     *int
	Rows         *int
	ReadsPerDay  *int
	WritesPerDay *int
	ValueBytes   *int
	MaxRetries   *int
	AvoidScore   *float64
}

// TaskRunDef mirrors fleet.TaskRunConfig.
type TaskRunDef struct {
	Tasks               int
	GranulesPerTask     *int
	MaxRetries          *int
	DivergenceThreshold *int
	Paranoid            *bool
}

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

	Inject   *InjectDef   // inject_defect
	Machine  string       // drain/undrain/cordon/release_machine
	Point    *PointDef    // set_operating_point
	KV       *KVDef       // start_kv_load
	TaskRun  *TaskRunDef  // start_taskrun
	WALFault *WALFaultDef // inject_wal_fault
	NetFault *NetFaultDef // inject_network_fault
}

// WALFaultDef arms the chaos filesystem under the lifecycle WAL: the next
// Count operations of the named kind fail deterministically.
type WALFaultDef struct {
	// Kind is fail_write, torn_write, fail_sync, fail_truncate, enospc,
	// or enospc_clear (the sticky disk-full toggle ignores Count).
	Kind  string
	Count int
}

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
	Kind  string
	Count int
}

// InjectDef materializes a new defective core mid-run — either sampled
// from a catalog class, or built field-by-field (§2 incident
// reproductions pin the exact corruption shape).
type InjectDef struct {
	Machine string
	Core    int
	// Class samples from the fault catalog; when set, the explicit
	// fields below must be absent.
	Class string
	// Explicit defect.
	Unit            string
	Kind            string
	BaseRate        float64
	Deterministic   bool
	BitPos          *int
	StuckVal        *int
	Mask            uint64
	Delta           int64
	PatternMask     uint64
	PatternVal      uint64
	OnsetDays       float64
	EscalatePerYear float64
	FreqSens        float64
	VoltSens        float64
	TempSens        float64
}

// PointDef overrides parts of the fleet-wide operating point; absent
// fields keep their current value.
type PointDef struct {
	FreqGHz  *float64
	VoltageV *float64
	TempC    *float64
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
// reported together, not one at a time.
func Parse(name string, data []byte) (*Scenario, error) {
	root, err := parseDocument(name, data)
	if err != nil {
		return nil, err
	}
	d := &decoder{name: name}
	s := d.scenario(root)
	if len(d.errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(d.errs, "\n"))
	}
	s.File = name
	return s, nil
}

// decoder walks the parse tree, collecting every schema violation with
// its source line.
type decoder struct {
	name string
	errs []string
}

func (d *decoder) errf(line int, format string, args ...interface{}) {
	d.errs = append(d.errs, fmt.Sprintf("%s:%d: %s", d.name, line, fmt.Sprintf(format, args...)))
}

// asMap coerces a node into a mapping; null is accepted as an empty
// mapping (e.g. "stop_kv_load:" with no parameters).
func (d *decoder) asMap(n *node, what string) *node {
	if n == nil || n.kind == nNull {
		return newMapNode(lineOf(n))
	}
	if n.kind != nMap {
		d.errf(n.line, "%s must be a mapping", what)
		return nil
	}
	return n
}

func lineOf(n *node) int {
	if n == nil {
		return 0
	}
	return n.line
}

// known flags every key outside allowed as an error.
func (d *decoder) known(m *node, what string, allowed ...string) {
	ok := map[string]bool{}
	for _, k := range allowed {
		ok[k] = true
	}
	for _, k := range m.keys {
		if !ok[k] {
			d.errf(m.keyLine(k), "unknown key %q in %s (known: %s)", k, what, strings.Join(allowed, ", "))
		}
	}
}

func (d *decoder) scalar(m *node, key, what string) (*node, bool) {
	c := m.child(key)
	if c == nil {
		return nil, false
	}
	if c.kind != nScalar {
		d.errf(c.line, "%s.%s must be a scalar", what, key)
		return nil, false
	}
	return c, true
}

func (d *decoder) str(m *node, key, what string) (string, bool) {
	c, ok := d.scalar(m, key, what)
	if !ok {
		return "", false
	}
	return c.text, true
}

func (d *decoder) intVal(m *node, key, what string) (int64, bool) {
	c, ok := d.scalar(m, key, what)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(c.text, 0, 64)
	if err != nil {
		d.errf(c.line, "%s.%s: %q is not an integer", what, key, c.text)
		return 0, false
	}
	return v, true
}

func (d *decoder) uintVal(m *node, key, what string) (uint64, bool) {
	c, ok := d.scalar(m, key, what)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(c.text, 0, 64)
	if err != nil {
		d.errf(c.line, "%s.%s: %q is not an unsigned integer", what, key, c.text)
		return 0, false
	}
	return v, true
}

func (d *decoder) floatVal(m *node, key, what string) (float64, bool) {
	c, ok := d.scalar(m, key, what)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(c.text, 64)
	if err != nil {
		d.errf(c.line, "%s.%s: %q is not a number", what, key, c.text)
		return 0, false
	}
	return v, true
}

func (d *decoder) boolVal(m *node, key, what string) (bool, bool) {
	c, ok := d.scalar(m, key, what)
	if !ok {
		return false, false
	}
	switch c.text {
	case "true":
		return true, true
	case "false":
		return false, true
	}
	d.errf(c.line, "%s.%s: %q is not a boolean (true/false)", what, key, c.text)
	return false, false
}

// Optional-pointer getters.
func (d *decoder) optInt(m *node, key, what string) *int {
	if v, ok := d.intVal(m, key, what); ok {
		i := int(v)
		return &i
	}
	return nil
}

func (d *decoder) optUint(m *node, key, what string) *uint64 {
	if v, ok := d.uintVal(m, key, what); ok {
		return &v
	}
	return nil
}

func (d *decoder) optFloat(m *node, key, what string) *float64 {
	if v, ok := d.floatVal(m, key, what); ok {
		return &v
	}
	return nil
}

func (d *decoder) optBool(m *node, key, what string) *bool {
	if v, ok := d.boolVal(m, key, what); ok {
		return &v
	}
	return nil
}

// ---- sections ----

func (d *decoder) scenario(root *node) *Scenario {
	s := &Scenario{}
	m := d.asMap(root, "document")
	if m == nil {
		return s
	}
	d.known(m, "scenario", "name", "description", "seed", "days", "parallelism",
		"fleet", "workloads", "events", "assert")
	if v, ok := d.str(m, "name", "scenario"); ok {
		s.Name = v
	}
	if s.Name == "" {
		d.errf(m.line, "scenario.name is required")
	}
	s.Description, _ = d.str(m, "description", "scenario")
	s.Seed = d.optUint(m, "seed", "scenario")
	if v, ok := d.intVal(m, "days", "scenario"); ok {
		s.Days = int(v)
	}
	if s.Days <= 0 {
		d.errf(m.keyLine("days"), "scenario.days must be a positive integer")
	}
	if p := d.optInt(m, "parallelism", "scenario"); p != nil {
		if *p < 0 {
			d.errf(m.keyLine("parallelism"), "scenario.parallelism must be >= 0")
		} else {
			s.Parallelism = *p
		}
	}
	if fm := d.asMap(m.child("fleet"), "fleet"); fm != nil {
		if m.child("fleet") == nil {
			d.errf(m.line, "scenario.fleet is required")
		} else {
			s.Fleet = d.fleetDef(fm)
		}
	}
	if wn := m.child("workloads"); wn != nil {
		if wm := d.asMap(wn, "workloads"); wm != nil {
			s.Workloads = d.workloads(wm)
		}
	}
	if en := m.child("events"); en != nil {
		if en.kind != nSeq {
			d.errf(en.line, "events must be a sequence")
		} else {
			for _, item := range en.items {
				if ev, ok := d.event(item, s); ok {
					s.Events = append(s.Events, ev)
				}
			}
		}
	}
	if an := m.child("assert"); an != nil {
		if am := d.asMap(an, "assert"); am != nil {
			s.Assert = d.assertions(am)
		}
	}
	for _, ms := range s.Assert.MachineStates {
		if s.Fleet.Lifecycle == nil || !s.Fleet.Lifecycle.Enabled {
			d.errf(ms.Line, "assert.machine_states requires fleet.lifecycle.enabled: true")
			break
		}
	}
	if lc := s.Fleet.Lifecycle; lc != nil && !lc.Enabled &&
		(lc.WAL || len(lc.Pools) > 0 || lc.Policy != "" || lc.Notify != "") {
		d.errf(m.keyLine("fleet"), "fleet.lifecycle options (wal, pools, policy, notify) require enabled: true")
	}
	for _, ev := range s.Events {
		switch ev.Kind {
		case EvInjectWALFault:
			if lc := s.Fleet.Lifecycle; lc == nil || !lc.Enabled || !lc.WAL {
				d.errf(ev.Line, "inject_wal_fault requires fleet.lifecycle.wal: true")
			}
		case EvInjectNetFault:
			if lc := s.Fleet.Lifecycle; lc == nil || !lc.Enabled || lc.Notify != "webhook" {
				d.errf(ev.Line, "inject_network_fault requires fleet.lifecycle.notify: webhook")
			}
		}
	}
	for _, ms := range s.Assert.MachineStates {
		if idx, err := parseMachineID(ms.Machine); err == nil &&
			s.Fleet.Machines > 0 && idx >= s.Fleet.Machines {
			d.errf(ms.Line, "assert.machine_states: machine %q outside the fleet (machines: %d)",
				ms.Machine, s.Fleet.Machines)
		}
	}
	return s
}

func (d *decoder) fleetDef(m *node) FleetDef {
	var f FleetDef
	d.known(m, "fleet", "machines", "cores_per_machine", "defects_per_machine",
		"daily_ops_per_core", "p_immediate_detect", "p_crash", "p_mce",
		"p_late_detect", "p_core_attribution", "software_bug_signals_per_machine_day",
		"user_report_fraction", "screen_ops_per_core_day", "initial_corpus",
		"corpus_grow_every_days", "max_signals_per_core_day", "repair_after_days",
		"policy", "confession", "skus", "lifecycle")
	if v, ok := d.intVal(m, "machines", "fleet"); ok {
		f.Machines = int(v)
	}
	if f.Machines <= 0 {
		d.errf(m.keyLine("machines"), "fleet.machines must be a positive integer")
	}
	if v, ok := d.intVal(m, "cores_per_machine", "fleet"); ok {
		f.Cores = int(v)
	}
	if f.Cores <= 0 {
		d.errf(m.keyLine("cores_per_machine"), "fleet.cores_per_machine must be a positive integer")
	}
	f.DefectsPerMachine = d.optFloat(m, "defects_per_machine", "fleet")
	f.DailyOpsPerCore = d.optFloat(m, "daily_ops_per_core", "fleet")
	f.PImmediateDetect = d.optFloat(m, "p_immediate_detect", "fleet")
	f.PCrash = d.optFloat(m, "p_crash", "fleet")
	f.PMCE = d.optFloat(m, "p_mce", "fleet")
	f.PLateDetect = d.optFloat(m, "p_late_detect", "fleet")
	f.PCoreAttribution = d.optFloat(m, "p_core_attribution", "fleet")
	f.SoftwareBugSignalsPerDay = d.optFloat(m, "software_bug_signals_per_machine_day", "fleet")
	f.UserReportFraction = d.optFloat(m, "user_report_fraction", "fleet")
	f.ScreenOpsPerCoreDay = d.optUint(m, "screen_ops_per_core_day", "fleet")
	f.InitialCorpus = d.optInt(m, "initial_corpus", "fleet")
	f.CorpusGrowEveryDays = d.optInt(m, "corpus_grow_every_days", "fleet")
	f.MaxSignalsPerCoreDay = d.optInt(m, "max_signals_per_core_day", "fleet")
	f.RepairAfterDays = d.optInt(m, "repair_after_days", "fleet")
	if pn := m.child("policy"); pn != nil {
		if pm := d.asMap(pn, "fleet.policy"); pm != nil {
			f.Policy = d.policyDef(pm)
		}
	}
	if ln := m.child("lifecycle"); ln != nil {
		if lm := d.asMap(ln, "fleet.lifecycle"); lm != nil {
			f.Lifecycle = d.lifecycleDef(lm)
		}
	}
	if cn := m.child("confession"); cn != nil {
		if cm := d.asMap(cn, "fleet.confession"); cm != nil {
			d.known(cm, "fleet.confession", "passes", "max_ops")
			f.Confession = &ConfessionDef{
				Passes: d.optInt(cm, "passes", "fleet.confession"),
				MaxOps: d.optUint(cm, "max_ops", "fleet.confession"),
			}
		}
	}
	if sn := m.child("skus"); sn != nil {
		if sn.kind != nSeq {
			d.errf(sn.line, "fleet.skus must be a sequence")
		} else {
			for _, item := range sn.items {
				sm := d.asMap(item, "fleet.skus entry")
				if sm == nil {
					continue
				}
				d.known(sm, "fleet.skus entry", "name", "fraction", "defect_multiplier", "pre_age_days")
				var sku SKUDef
				sku.Name, _ = d.str(sm, "name", "sku")
				if sku.Name == "" {
					d.errf(sm.line, "sku.name is required")
				}
				if v, ok := d.floatVal(sm, "fraction", "sku"); ok {
					sku.Fraction = v
				}
				if sku.Fraction <= 0 {
					d.errf(sm.keyLine("fraction"), "sku.fraction must be > 0")
				}
				if v, ok := d.floatVal(sm, "defect_multiplier", "sku"); ok {
					sku.DefectMultiplier = v
				}
				if v, ok := d.floatVal(sm, "pre_age_days", "sku"); ok {
					sku.PreAgeDays = v
				}
				f.SKUs = append(f.SKUs, sku)
			}
		}
	}
	return f
}

var policyModes = map[string]bool{"machine-drain": true, "core-removal": true, "safe-tasks": true}

func (d *decoder) policyDef(m *node) *PolicyDef {
	d.known(m, "fleet.policy", "mode", "min_score", "require_confession", "decline_retry_days")
	p := &PolicyDef{}
	if v, ok := d.str(m, "mode", "policy"); ok {
		if !policyModes[v] {
			d.errf(m.keyLine("mode"), "policy.mode %q unknown (machine-drain, core-removal, safe-tasks)", v)
		}
		p.Mode = v
	}
	p.MinScore = d.optFloat(m, "min_score", "policy")
	p.RequireConfession = d.optBool(m, "require_confession", "policy")
	p.DeclineRetryDays = d.optFloat(m, "decline_retry_days", "policy")
	return p
}

var remediationPolicies = map[string]bool{"default": true, "escalating": true, "swap": true}

func (d *decoder) lifecycleDef(lm *node) *LifecycleDef {
	d.known(lm, "fleet.lifecycle", "enabled", "max_repairs", "probation_days",
		"wal", "pools", "policy", "score_threshold", "max_retests",
		"repair_tickets_per_pool", "notify")
	lc := &LifecycleDef{}
	if v, ok := d.boolVal(lm, "enabled", "fleet.lifecycle"); ok {
		lc.Enabled = v
	}
	lc.MaxRepairs = d.optInt(lm, "max_repairs", "fleet.lifecycle")
	lc.ProbationDays = d.optInt(lm, "probation_days", "fleet.lifecycle")
	if lc.MaxRepairs != nil && *lc.MaxRepairs < 0 {
		d.errf(lm.keyLine("max_repairs"), "fleet.lifecycle.max_repairs must be >= 0")
	}
	if lc.ProbationDays != nil && *lc.ProbationDays < 0 {
		d.errf(lm.keyLine("probation_days"), "fleet.lifecycle.probation_days must be >= 0")
	}
	if v, ok := d.boolVal(lm, "wal", "fleet.lifecycle"); ok {
		lc.WAL = v
	}
	if v, ok := d.str(lm, "policy", "fleet.lifecycle"); ok {
		if !remediationPolicies[v] {
			d.errf(lm.keyLine("policy"), "fleet.lifecycle.policy %q unknown (default, escalating, swap)", v)
		}
		lc.Policy = v
	}
	lc.ScoreThreshold = d.optFloat(lm, "score_threshold", "fleet.lifecycle")
	lc.MaxRetests = d.optInt(lm, "max_retests", "fleet.lifecycle")
	lc.RepairTicketsPerPool = d.optInt(lm, "repair_tickets_per_pool", "fleet.lifecycle")
	if lc.ScoreThreshold != nil && *lc.ScoreThreshold < 0 {
		d.errf(lm.keyLine("score_threshold"), "fleet.lifecycle.score_threshold must be >= 0")
	}
	if lc.MaxRetests != nil && *lc.MaxRetests < 0 {
		d.errf(lm.keyLine("max_retests"), "fleet.lifecycle.max_retests must be >= 0")
	}
	if lc.RepairTicketsPerPool != nil && *lc.RepairTicketsPerPool < 0 {
		d.errf(lm.keyLine("repair_tickets_per_pool"), "fleet.lifecycle.repair_tickets_per_pool must be >= 0")
	}
	if v, ok := d.str(lm, "notify", "fleet.lifecycle"); ok {
		if v != "log" && v != "webhook" {
			d.errf(lm.keyLine("notify"), "fleet.lifecycle.notify %q unknown (log, webhook)", v)
		}
		lc.Notify = v
	}
	if pn := lm.child("pools"); pn != nil {
		if pn.kind != nSeq {
			d.errf(pn.line, "fleet.lifecycle.pools must be a sequence")
		} else {
			seen := map[string]bool{}
			for _, item := range pn.items {
				pm := d.asMap(item, "fleet.lifecycle.pools entry")
				if pm == nil {
					continue
				}
				d.known(pm, "fleet.lifecycle.pools entry", "name", "min_healthy", "min_healthy_count")
				p := PoolDef{Line: pm.line}
				p.Name, _ = d.str(pm, "name", "pool")
				if p.Name == "" {
					d.errf(pm.line, "pool.name is required")
				} else if seen[p.Name] {
					d.errf(pm.line, "duplicate pool %q", p.Name)
				}
				seen[p.Name] = true
				p.MinHealthy = d.optFloat(pm, "min_healthy", "pool")
				p.MinHealthyCount = d.optInt(pm, "min_healthy_count", "pool")
				if p.MinHealthy != nil && (*p.MinHealthy <= 0 || *p.MinHealthy > 1) {
					d.errf(pm.keyLine("min_healthy"), "pool.min_healthy must be in (0, 1]")
				}
				if p.MinHealthyCount != nil && *p.MinHealthyCount < 0 {
					d.errf(pm.keyLine("min_healthy_count"), "pool.min_healthy_count must be >= 0")
				}
				if p.MinHealthy == nil && p.MinHealthyCount == nil {
					d.errf(pm.line, "pool %q needs min_healthy and/or min_healthy_count", p.Name)
				}
				lc.Pools = append(lc.Pools, p)
			}
		}
	}
	return lc
}

func (d *decoder) workloads(m *node) Workloads {
	d.known(m, "workloads", "kvdb", "taskrun")
	var w Workloads
	if kn := m.child("kvdb"); kn != nil {
		if km := d.asMap(kn, "workloads.kvdb"); km != nil {
			w.KVDB = d.kvDef(km, "workloads.kvdb")
		}
	}
	if tn := m.child("taskrun"); tn != nil {
		if tm := d.asMap(tn, "workloads.taskrun"); tm != nil {
			w.TaskRun = d.taskRunDef(tm, "workloads.taskrun")
		}
	}
	return w
}

func (d *decoder) kvDef(m *node, what string) *KVDef {
	d.known(m, what, "stores", "replicas", "rows", "reads_per_day", "writes_per_day",
		"value_bytes", "max_retries", "avoid_score")
	k := &KVDef{}
	if v, ok := d.intVal(m, "stores", what); ok {
		k.Stores = int(v)
	}
	if k.Stores <= 0 {
		d.errf(m.keyLine("stores"), "%s.stores must be a positive integer", what)
	}
	k.Replicas = d.optInt(m, "replicas", what)
	k.Rows = d.optInt(m, "rows", what)
	k.ReadsPerDay = d.optInt(m, "reads_per_day", what)
	k.WritesPerDay = d.optInt(m, "writes_per_day", what)
	k.ValueBytes = d.optInt(m, "value_bytes", what)
	k.MaxRetries = d.optInt(m, "max_retries", what)
	k.AvoidScore = d.optFloat(m, "avoid_score", what)
	return k
}

func (d *decoder) taskRunDef(m *node, what string) *TaskRunDef {
	d.known(m, what, "tasks", "granules_per_task", "max_retries",
		"divergence_threshold", "paranoid")
	t := &TaskRunDef{}
	if v, ok := d.intVal(m, "tasks", what); ok {
		t.Tasks = int(v)
	}
	if t.Tasks <= 0 {
		d.errf(m.keyLine("tasks"), "%s.tasks must be a positive integer", what)
	}
	t.GranulesPerTask = d.optInt(m, "granules_per_task", what)
	t.MaxRetries = d.optInt(m, "max_retries", what)
	t.DivergenceThreshold = d.optInt(m, "divergence_threshold", what)
	t.Paranoid = d.optBool(m, "paranoid", what)
	return t
}

// ---- events ----

func (d *decoder) event(n *node, s *Scenario) (Event, bool) {
	m := d.asMap(n, "events entry")
	if m == nil {
		return Event{}, false
	}
	ev := Event{Line: m.line}
	if v, ok := d.intVal(m, "day", "event"); ok {
		ev.Day = int(v)
	} else if m.child("day") == nil {
		d.errf(m.line, "event.day is required")
	}
	if ev.Day < 0 || (s.Days > 0 && ev.Day >= s.Days) {
		d.errf(m.keyLine("day"), "event.day %d out of range [0, %d)", ev.Day, s.Days)
	}
	var actions []string
	for _, k := range m.keys {
		for _, kind := range eventKinds {
			if k == kind {
				actions = append(actions, k)
			}
		}
	}
	if len(actions) != 1 {
		d.errf(m.line, "event must have exactly one action of %s (got %d)",
			strings.Join(eventKinds, ", "), len(actions))
		return ev, false
	}
	ev.Kind = actions[0]
	d.known(m, "event", append([]string{"day"}, ev.Kind)...)
	body := m.child(ev.Kind)
	switch ev.Kind {
	case EvInjectDefect:
		if bm := d.asMap(body, ev.Kind); bm != nil {
			ev.Inject = d.injectDef(bm, s)
		}
	case EvDrainMachine, EvUndrainMachine, EvCordonMachine, EvReleaseMachine:
		if bm := d.asMap(body, ev.Kind); bm != nil {
			d.known(bm, ev.Kind, "machine")
			ev.Machine, _ = d.str(bm, "machine", ev.Kind)
			d.checkMachine(bm, ev.Machine, s)
		}
	case EvSetOperatingPoint:
		if bm := d.asMap(body, ev.Kind); bm != nil {
			d.known(bm, ev.Kind, "freq_ghz", "voltage_v", "temp_c")
			ev.Point = &PointDef{
				FreqGHz:  d.optFloat(bm, "freq_ghz", ev.Kind),
				VoltageV: d.optFloat(bm, "voltage_v", ev.Kind),
				TempC:    d.optFloat(bm, "temp_c", ev.Kind),
			}
		}
	case EvStartKVLoad:
		if bm := d.asMap(body, ev.Kind); bm != nil {
			ev.KV = d.kvDef(bm, ev.Kind)
		}
	case EvStartTaskRun:
		if bm := d.asMap(body, ev.Kind); bm != nil {
			ev.TaskRun = d.taskRunDef(bm, ev.Kind)
		}
	case EvStopKVLoad, EvStopTaskRun:
		if bm := d.asMap(body, ev.Kind); bm != nil {
			d.known(bm, ev.Kind) // no parameters
		}
	case EvInjectWALFault:
		if bm := d.asMap(body, ev.Kind); bm != nil {
			d.known(bm, ev.Kind, "kind", "count")
			w := &WALFaultDef{Count: 1}
			w.Kind, _ = d.str(bm, "kind", ev.Kind)
			known := false
			for _, k := range walFaultKinds {
				if w.Kind == k {
					known = true
				}
			}
			if !known {
				d.errf(bm.keyLine("kind"), "inject_wal_fault.kind %q unknown (have %s)",
					w.Kind, strings.Join(walFaultKinds, ", "))
			}
			if v, ok := d.intVal(bm, "count", ev.Kind); ok {
				w.Count = int(v)
			}
			if w.Count <= 0 {
				d.errf(bm.keyLine("count"), "inject_wal_fault.count must be a positive integer")
			}
			ev.WALFault = w
		}
	case EvInjectNetFault:
		if bm := d.asMap(body, ev.Kind); bm != nil {
			d.known(bm, ev.Kind, "kind", "count")
			nf := &NetFaultDef{Count: 1}
			nf.Kind, _ = d.str(bm, "kind", ev.Kind)
			if _, err := chaos.NetFaultByName(nf.Kind); err != nil {
				d.errf(bm.keyLine("kind"), "inject_network_fault.kind: %v", err)
			}
			if v, ok := d.intVal(bm, "count", ev.Kind); ok {
				nf.Count = int(v)
			}
			if nf.Count <= 0 {
				d.errf(bm.keyLine("count"), "inject_network_fault.count must be a positive integer")
			}
			ev.NetFault = nf
		}
	}
	return ev, true
}

// parseMachineID extracts the index from a dense machine id ("m00017").
func parseMachineID(id string) (int, error) {
	if len(id) < 2 || id[0] != 'm' {
		return 0, fmt.Errorf("machine id %q must look like m00017", id)
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("machine id %q must look like m00017", id)
	}
	return n, nil
}

func (d *decoder) checkMachine(m *node, id string, s *Scenario) {
	if id == "" {
		d.errf(m.line, "machine is required")
		return
	}
	idx, err := parseMachineID(id)
	if err != nil {
		d.errf(m.keyLine("machine"), "%v", err)
		return
	}
	if s.Fleet.Machines > 0 && idx >= s.Fleet.Machines {
		d.errf(m.keyLine("machine"), "machine %q outside the fleet (machines: %d)", id, s.Fleet.Machines)
	}
}

func (d *decoder) injectDef(m *node, s *Scenario) *InjectDef {
	d.known(m, "inject_defect", "machine", "core", "class", "unit", "kind",
		"base_rate", "deterministic", "bit_pos", "stuck_val", "mask", "delta",
		"pattern_mask", "pattern_val", "onset_days", "escalate_per_year",
		"freq_sens", "volt_sens", "temp_sens")
	in := &InjectDef{Core: -1, EscalatePerYear: 1}
	in.Machine, _ = d.str(m, "machine", "inject_defect")
	d.checkMachine(m, in.Machine, s)
	if v, ok := d.intVal(m, "core", "inject_defect"); ok {
		in.Core = int(v)
	}
	if in.Core < 0 || (s.Fleet.Cores > 0 && in.Core >= s.Fleet.Cores) {
		d.errf(m.keyLine("core"), "inject_defect.core %d out of range [0, %d)", in.Core, s.Fleet.Cores)
	}
	in.Class, _ = d.str(m, "class", "inject_defect")
	in.Unit, _ = d.str(m, "unit", "inject_defect")
	in.Kind, _ = d.str(m, "kind", "inject_defect")
	if v, ok := d.floatVal(m, "base_rate", "inject_defect"); ok {
		in.BaseRate = v
	}
	if v, ok := d.boolVal(m, "deterministic", "inject_defect"); ok {
		in.Deterministic = v
	}
	in.BitPos = d.optInt(m, "bit_pos", "inject_defect")
	in.StuckVal = d.optInt(m, "stuck_val", "inject_defect")
	if v, ok := d.uintVal(m, "mask", "inject_defect"); ok {
		in.Mask = v
	}
	if v, ok := d.intVal(m, "delta", "inject_defect"); ok {
		in.Delta = v
	}
	if v, ok := d.uintVal(m, "pattern_mask", "inject_defect"); ok {
		in.PatternMask = v
	}
	if v, ok := d.uintVal(m, "pattern_val", "inject_defect"); ok {
		in.PatternVal = v
	}
	if v, ok := d.floatVal(m, "onset_days", "inject_defect"); ok {
		in.OnsetDays = v
	}
	if v, ok := d.floatVal(m, "escalate_per_year", "inject_defect"); ok {
		in.EscalatePerYear = v
	}
	if v, ok := d.floatVal(m, "freq_sens", "inject_defect"); ok {
		in.FreqSens = v
	}
	if v, ok := d.floatVal(m, "volt_sens", "inject_defect"); ok {
		in.VoltSens = v
	}
	if v, ok := d.floatVal(m, "temp_sens", "inject_defect"); ok {
		in.TempSens = v
	}

	if in.Class != "" {
		if in.Unit != "" || in.Kind != "" || in.BaseRate != 0 || in.Deterministic {
			d.errf(m.keyLine("class"), "inject_defect: class and explicit defect fields are mutually exclusive")
		}
		if _, err := fault.ClassByName(in.Class); err != nil {
			d.errf(m.keyLine("class"), "inject_defect.class %q unknown (have %s)",
				in.Class, strings.Join(fault.ClassNames(), ", "))
		}
		return in
	}
	if in.Unit == "" {
		d.errf(m.line, "inject_defect needs either class or an explicit unit")
		return in
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
	return in
}

// sortedEvents returns the events ordered by day, preserving file order
// within a day (sort.SliceStable keeps the determinism contract: event
// application order never depends on map iteration or timing).
func (s *Scenario) sortedEvents() []Event {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Day < evs[j].Day })
	return evs
}
