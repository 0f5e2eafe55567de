package scenario

// End-state assertions turn a scenario into a regression test: after the
// run, named quantities read from the metrics registry are checked
// against declared ranges, specific cores are required to be in (or out
// of) the final quarantine ledger, and metrics-registry series can be
// pinned too. Every failure message carries the file:line of the
// assertion that failed.

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// Range bounds one quantity. A bare scalar in the file means Min == Max.
type Range struct {
	Min  *float64 `scn:"min"`
	Max  *float64 `scn:"max"`
	Line int
}

func (r Range) check(name string, v float64) string {
	if r.Min != nil && v < *r.Min {
		return fmt.Sprintf("%s = %s, want >= %s", name, fmtNum(v), fmtNum(*r.Min))
	}
	if r.Max != nil && v > *r.Max {
		return fmt.Sprintf("%s = %s, want <= %s", name, fmtNum(v), fmtNum(*r.Max))
	}
	return ""
}

func fmtNum(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// MetricAssert bounds one metrics-registry series (summed over every
// series of the family whose labels are a superset of Labels). Counters
// and gauges contribute their value, histograms their observation count.
type MetricAssert struct {
	Name   string       `scn:"name"`
	Labels metricLabels `scn:"labels"`
	Range
	Line int
}

// metricLabels is an assert.metrics entry's label filter.
type metricLabels map[string]string

// CoreAssert requires a specific core to be present in (or absent from)
// the final quarantine ledger.
type CoreAssert struct {
	Machine string
	Core    int
	Line    int
}

// MachineStateAssert pins one machine's final lifecycle-ledger state
// ("m00007" must end the run "drained"). Requires the control plane
// (fleet.lifecycle.enabled) — validated at parse time.
type MachineStateAssert struct {
	Machine string
	State   string
	Line    int
}

// Assertions is the decoded assert section.
type Assertions struct {
	// Quantities maps assertable-quantity names (see QuantityNames) to
	// their declared ranges, in file order.
	Quantities []QuantityAssert
	// QuarantinedCores must appear in the final ledger.
	QuarantinedCores []CoreAssert
	// NotQuarantinedCores must NOT appear in the final ledger.
	NotQuarantinedCores []CoreAssert
	Metrics             []MetricAssert
	// MachineStates pins final lifecycle-ledger states per machine.
	MachineStates []MachineStateAssert
}

// QuantityAssert is one named-quantity range.
type QuantityAssert struct {
	Name  string
	Range Range
}

// Count is the number of assertions the scenario declares.
func (a Assertions) Count() int {
	return len(a.Quantities) + len(a.QuarantinedCores) +
		len(a.NotQuarantinedCores) + len(a.Metrics) + len(a.MachineStates)
}

// seriesRef selects registry series: every series of family name whose
// labels include labels (nil selects the whole family).
type seriesRef struct {
	name   string
	labels map[string]string
}

// toState selects lifecycle_transitions_total into state st.
func toState(st lifecycle.State) seriesRef {
	return seriesRef{"lifecycle_transitions_total", map[string]string{"to": st.String()}}
}

// aliases maps each assertable quantity to the registry series it reads,
// summed — the numbers fleetsim run -metrics prints. The names are the
// public assertion vocabulary, documented in DESIGN.md §10.
var aliases = map[string][]seriesRef{
	// Ground truth and signal flow (summed over the run).
	"corruptions":       {{name: "fleet_corruptions_total"}},
	"auto_reports":      {{name: "fleet_reports_auto_total"}},
	"user_reports":      {{name: "fleet_reports_user_total"}},
	"screen_detections": {{name: "fleet_screen_detections_total"}},
	"quarantined":       {{name: "fleet_quarantines_total"}},
	"repairs":           {{name: "fleet_repairs_total"}},
	// End-of-run state: the gauge holds the last day's count.
	"active_defects_end": {{name: "fleet_active_defects"}},
	// Detection report (ground truth vs quarantine ledger) and human-
	// triage ledger, published as gauges at end of run.
	"defective":           {{name: "detection_defective_cores"}},
	"past_onset":          {{name: "detection_past_onset_cores"}},
	"true_positive":       {{name: "detection_true_positives"}},
	"false_positive":      {{name: "detection_false_positives"}},
	"detected_fraction":   {{name: "detection_detected_fraction"}},
	"mean_latency_days":   {{name: "detection_mean_latency_days"}},
	"investigated":        {{name: "triage_investigated"}},
	"triage_confirmed":    {{name: "triage_confirmed"}},
	"false_accusations":   {{name: "triage_false_accusations"}},
	"real_not_reproduced": {{name: "triage_real_not_reproduced"}},
	// Tolerant-kvdb workload; a read counts whatever its result.
	"kv_reads":    {{name: "kvdb_reads_total"}},
	"kv_retries":  {{name: "kvdb_read_retries_total"}},
	"kv_repairs":  {{name: "kvdb_read_repairs_total"}},
	"kv_degraded": {{name: "kvdb_degraded_serves_total"}},
	"kv_errors":   {{name: "kvdb_read_errors_total"}},
	// Checkpoint/retry workload. A granule counts once it commits, first
	// time or after a retry. A task fails on a granule out of retries or
	// on finding no core to run on, which fails no granule.
	"tr_granules": {
		{"taskrun_granules_total", map[string]string{"outcome": "committed"}},
		{"taskrun_granules_total", map[string]string{"outcome": "recovered"}},
	},
	"tr_retries":    {{name: "taskrun_retries_total"}},
	"tr_migrations": {{name: "taskrun_migrations_total"}},
	"tr_restores":   {{name: "taskrun_checkpoint_restores_total"}},
	"tr_signals":    {{name: "taskrun_signals_total"}},
	"tr_failures":   {{name: "taskrun_tasks_failed_total"}},
	// Machine-lifecycle ledger (zero unless fleet.lifecycle enables it).
	// Reintroduced counts moves back toward service: repairs land in
	// probation, releases and exonerations in healthy.
	"life_cordoned":     {toState(lifecycle.Cordoned)},
	"life_drained":      {toState(lifecycle.Drained)},
	"life_removed":      {toState(lifecycle.Removed)},
	"life_reintroduced": {toState(lifecycle.Probation), toState(lifecycle.Healthy)},
	// The deferred-drain queue (zero without fleet.lifecycle.pools).
	"life_deferred": {{name: "lifecycle_drains_deferred_total"}},
	"life_admitted": {{name: "lifecycle_drains_admitted_total"}},
	// Remediation policies, pool floors and WAL health (zero without a
	// fleet.lifecycle policy, pools or WAL faults): pool×days below the
	// serving floor, days the WAL ended unhealthy.
	"life_retests":        {{name: "lifecycle_retests_total"}},
	"life_swaps":          {{name: "lifecycle_swaps_total"}},
	"pool_floor_breaches": {{name: "lifecycle_pool_floor_breaches_total"}},
	"wal_error_days":      {{name: "lifecycle_wal_error_days_total"}},
	// Chaos harness tallies, published at end of run (zero unless the
	// scenario arms faults or a webhook notifier).
	"wal_faults":       {{name: "chaos_wal_faults"}},
	"net_faults":       {{name: "chaos_net_faults"}},
	"notify_delivered": {{name: "notify_delivered"}},
	"notify_failed":    {{name: "notify_failed"}},
	"notify_dropped":   {{name: "notify_dropped"}},
}

// Quantity returns the named assertable quantity (see QuantityNames): the
// sum of its series in the run's metrics snapshot. It panics on an
// unknown name.
func (r *Result) Quantity(name string) float64 {
	refs, ok := aliases[name]
	if !ok {
		panic("scenario: unknown quantity " + name)
	}
	var sum float64
	for _, ref := range refs {
		v, _ := metricValue(r.Snapshot, ref.name, ref.labels)
		sum += v
	}
	return sum
}

// QuantityNames returns the assertable quantity vocabulary, sorted.
func QuantityNames() []string {
	out := make([]string, 0, len(aliases))
	for k := range aliases {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- decoding ----

// decodeScn decodes the assert section, whose keys are the quantity
// vocabulary plus the core, machine-state and metrics lists.
func (a *Assertions) decodeScn(d *decoder, n *node, path, _ string) bool {
	m := d.asMap(n, path)
	if m == nil {
		return false
	}
	for _, key := range m.keys {
		child := m.children[key]
		switch key {
		case "quarantined_cores":
			a.QuarantinedCores = d.coreList(child, key)
		case "not_quarantined_cores":
			a.NotQuarantinedCores = d.coreList(child, key)
		case "machine_states":
			a.MachineStates = d.machineStates(child)
		case "metrics":
			d.decodeInto(child, reflect.ValueOf(&a.Metrics).Elem(), "assert.metrics", "assert.metrics")
		default:
			if _, ok := aliases[key]; !ok {
				d.errf(m.keyLine(key), "unknown assertion %q (known: %s, quarantined_cores, not_quarantined_cores, machine_states, metrics)",
					key, strings.Join(QuantityNames(), ", "))
				continue
			}
			if rng, ok := d.rangeVal(child, "assert."+key); ok {
				a.Quantities = append(a.Quantities, QuantityAssert{Name: key, Range: rng})
			}
		}
	}
	return true
}

// rangeVal decodes {min: x, max: y} or a bare scalar (exact value).
func (d *decoder) rangeVal(n *node, what string) (Range, bool) {
	switch n.kind {
	case nScalar:
		var v float64
		if !d.scalar(n, reflect.ValueOf(&v).Elem(), what) {
			return Range{}, false
		}
		return Range{Min: &v, Max: &v, Line: n.line}, true
	case nMap:
		var r Range
		d.decodeStruct(n, reflect.ValueOf(&r).Elem(), what, what)
		if r.Min == nil && r.Max == nil {
			d.errf(n.line, "%s needs min and/or max", what)
			return Range{}, false
		}
		if r.Min != nil && r.Max != nil && *r.Min > *r.Max {
			d.errf(n.line, "%s: min %g > max %g", what, *r.Min, *r.Max)
			return Range{}, false
		}
		return r, true
	}
	d.errf(lineOf(n), "%s must be a number or {min, max}", what)
	return Range{}, false
}

func (d *decoder) coreList(n *node, what string) []CoreAssert {
	if n.kind != nSeq {
		d.errf(lineOf(n), "assert.%s must be a sequence of \"mNNNNN/core\" strings", what)
		return nil
	}
	var out []CoreAssert
	for _, item := range n.items {
		if item.kind != nScalar {
			d.errf(item.line, "assert.%s entries must be \"mNNNNN/core\" strings", what)
			continue
		}
		ca, err := parseCoreRef(item.text)
		if err != nil {
			d.errf(item.line, "assert.%s: %v", what, err)
			continue
		}
		ca.Line = item.line
		out = append(out, ca)
	}
	return out
}

func parseCoreRef(s string) (CoreAssert, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return CoreAssert{}, fmt.Errorf("core ref %q must look like m00017/3", s)
	}
	machine, coreStr := s[:slash], s[slash+1:]
	if _, err := fleet.ParseMachineID(machine); err != nil {
		return CoreAssert{}, err
	}
	core, err := strconv.Atoi(coreStr)
	if err != nil || core < 0 {
		return CoreAssert{}, fmt.Errorf("core ref %q must look like m00017/3", s)
	}
	return CoreAssert{Machine: machine, Core: core}, nil
}

// machineStates decodes the assert.machine_states mapping: machine id →
// lifecycle state name, both validated here so typos fail at parse time.
func (d *decoder) machineStates(n *node) []MachineStateAssert {
	if n == nil || n.kind != nMap {
		d.errf(lineOf(n), "assert.machine_states must be a mapping of machine id to state")
		return nil
	}
	var out []MachineStateAssert
	for _, id := range n.keys {
		v := n.children[id]
		line := n.keyLine(id)
		if _, err := fleet.ParseMachineID(id); err != nil {
			d.errf(line, "assert.machine_states: %v", err)
			continue
		}
		if v.kind != nScalar {
			d.errf(lineOf(v), "assert.machine_states.%s must be a state name", id)
			continue
		}
		if _, err := lifecycle.StateByName(v.text); err != nil {
			d.errf(v.line, "assert.machine_states.%s: state %q unknown (have %s)",
				id, v.text, strings.Join(lifecycle.StateNames(), ", "))
			continue
		}
		out = append(out, MachineStateAssert{Machine: id, State: v.text, Line: line})
	}
	return out
}

func (ma *MetricAssert) validate(d *decoder, m *node, _ string) {
	if ma.Name == "" {
		d.errf(m.line, "assert.metrics entry needs a name")
	} else if ma.Min == nil && ma.Max == nil {
		d.errf(m.line, "assert.metrics entry needs min and/or max")
	}
}

func (l *metricLabels) decodeScn(d *decoder, n *node, _, _ string) bool {
	m := d.asMap(n, "assert.metrics labels")
	if m == nil {
		return false
	}
	*l = metricLabels{}
	for _, k := range m.keys {
		v := m.children[k]
		if v.kind != nScalar {
			d.errf(v.line, "assert.metrics label %q must be a string", k)
			continue
		}
		(*l)[k] = v.text
	}
	return true
}

// ---- checking ----

// Check evaluates every assertion against a finished run and returns one
// message per failure (empty = all passed). Messages are prefixed with
// the scenario file and the assertion's line.
func (s *Scenario) Check(res *Result) []string {
	var fails []string
	at := func(line int, msg string) {
		fails = append(fails, fmt.Sprintf("%s:%d: %s", s.File, line, msg))
	}
	for _, q := range s.Assert.Quantities {
		v := res.Quantity(q.Name)
		if msg := q.Range.check(q.Name, v); msg != "" {
			at(q.Range.Line, msg)
		}
	}
	inLedger := map[string]bool{}
	for _, rec := range res.Records {
		inLedger[fmt.Sprintf("%s/%d", rec.Ref.Machine, rec.Ref.Core)] = true
	}
	for _, ca := range s.Assert.QuarantinedCores {
		key := fmt.Sprintf("%s/%d", ca.Machine, ca.Core)
		if !inLedger[key] {
			at(ca.Line, fmt.Sprintf("core %s not in the final quarantine ledger", key))
		}
	}
	for _, ca := range s.Assert.NotQuarantinedCores {
		key := fmt.Sprintf("%s/%d", ca.Machine, ca.Core)
		if inLedger[key] {
			at(ca.Line, fmt.Sprintf("core %s unexpectedly in the final quarantine ledger", key))
		}
	}
	if len(s.Assert.MachineStates) > 0 {
		// Machines never touched by the ledger are implicitly healthy.
		states := map[string]string{}
		for _, rec := range res.Lifecycle {
			states[rec.Machine] = rec.StateName
		}
		for _, ms := range s.Assert.MachineStates {
			got := states[ms.Machine]
			if got == "" {
				got = lifecycle.Healthy.String()
			}
			if got != ms.State {
				at(ms.Line, fmt.Sprintf("machine %s ended %s, want %s", ms.Machine, got, ms.State))
			}
		}
	}
	for _, ma := range s.Assert.Metrics {
		v, found := metricValue(res.Snapshot, ma.Name, ma.Labels)
		if !found {
			at(ma.Line, fmt.Sprintf("metric %s%s not found in registry", ma.Name, labelStr(ma.Labels)))
			continue
		}
		if msg := ma.Range.check(ma.Name+labelStr(ma.Labels), v); msg != "" {
			at(ma.Line, msg)
		}
	}
	return fails
}

func labelStr(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// metricValue sums every series of family name whose labels are a
// superset of want. Counters and gauges contribute Value, histograms
// their observation Count.
func metricValue(snap []obs.SeriesSnapshot, name string, want map[string]string) (float64, bool) {
	var (
		sum   float64
		found bool
	)
	for _, s := range snap {
		if s.Name != name || !labelsMatch(s.Labels, want) {
			continue
		}
		found = true
		if s.Kind == "histogram" {
			sum += float64(s.Count)
		} else {
			sum += s.Value
		}
	}
	return sum, found
}

func labelsMatch(have []obs.Label, want map[string]string) bool {
	for k, v := range want {
		ok := false
		for _, l := range have {
			if l.Key == k && l.Value == v {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
