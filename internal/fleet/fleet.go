// Package fleet implements the fleet-scale simulator that ties the whole
// system together and regenerates the paper's Figure 1 and quantified
// claims: a population of machines with rare mercurial cores, production
// workload that intermittently manifests CEEs as crashes, machine checks,
// detected wrong answers, and silent corruption; automated screening whose
// corpus coverage grows over time; human incident triage; the suspect-
// report service; and quarantine.
//
// The simulation is hybrid, mirroring how the numbers arise in production:
//
//   - Production-workload CEE manifestation is analytic: each defective
//     core's daily corruption count is Poisson with mean given by the
//     defect's activation rate and the workload's operation mix. This is
//     what makes simulating tens of thousands of machines tractable.
//   - Screening and confession testing are *real*: they run the actual
//     self-checking corpus through the op-level engine against the
//     materialized defective cores, so detection rates are produced by
//     the mechanism, not assumed.
//
// Healthy cores are not materialized (they cannot fail self-checks), which
// keeps memory proportional to the number of defects, not fleet size.
package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/quarantine"
	"repro/internal/remediate"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/screen"
	"repro/internal/simtime"
	"repro/internal/taskrun"
	"repro/internal/xrand"
)

// Config parameterizes a fleet simulation. A field tagged `scn:"key"`
// here, and in the config types below, is a scenario-file knob: package
// scenario decodes the file straight onto these types by the tags.
type Config struct {
	// Machines and CoresPerMachine shape the fleet.
	Machines        int `scn:"machines"`
	CoresPerMachine int `scn:"cores_per_machine"`
	// Seed makes the whole run reproducible.
	Seed uint64
	// DefectsPerMachine is the expected number of defective cores per
	// machine. The paper reports "on the order of a few mercurial cores
	// per several thousand machines"; the default 0.002 reproduces that.
	DefectsPerMachine float64 `scn:"defects_per_machine"`
	// SoftwareBugSignalsPerMachineDay is the background rate of
	// corruption-looking signals caused by ordinary software bugs,
	// spread evenly over cores — the noise the concentration test
	// rejects and the source of false human accusations.
	SoftwareBugSignalsPerMachineDay float64 `scn:"software_bug_signals_per_machine_day"`
	// UserReportFraction is the fraction of detected incidents that a
	// human investigates and files as a user report.
	UserReportFraction float64 `scn:"user_report_fraction"`
	// ScreenOpsPerCoreDay is the online screening budget per core per
	// day, in engine operations.
	ScreenOpsPerCoreDay uint64 `scn:"screen_ops_per_core_day"`
	// InitialCorpus and CorpusGrowEveryDays model §6's expanding test
	// corpus ("our regular fleet-wide testing has expanded to new
	// classes of CEEs ... a few times per year"): the automated screener
	// starts with the first InitialCorpus workloads and unlocks one more
	// every CorpusGrowEveryDays days. Zero disables growth.
	InitialCorpus       int `scn:"initial_corpus"`
	CorpusGrowEveryDays int `scn:"corpus_grow_every_days"`
	// Policy is the quarantine policy applied to nominated suspects.
	Policy quarantine.Policy
	// ConfessionConfig is the screen used for confessions; its zero
	// value selects a cheap two-pass sweep suitable for daily use.
	ConfessionConfig screen.Config
	// RepairAfterDays returns quarantined cores and drained machines to
	// service with healthy replacement silicon after this many days
	// (the RMA loop); 0 disables repair.
	RepairAfterDays int `scn:"repair_after_days"`
	// SKUs describes the CPU-product mix (§2: "the rate is not uniform
	// across CPU products"; §4: fleets have "various CPU types, from
	// several vendors, and of various ages"). Nil means one uniform SKU
	// with no pre-aging.
	SKUs []SKU
	// Lifecycle enables the machine-lifecycle control plane (see
	// lifecycle.go in this package and internal/lifecycle): a per-machine
	// ledger of cordon/drain/repair/probation transitions, recidivist
	// removal, and probationary reintroduction. The zero value disables
	// it and changes nothing.
	Lifecycle LifecycleConfig
	// Remediate selects the remediation policy the suspect phase consults
	// before convicting a machine (see internal/remediate). The zero value
	// is the default policy — bit-identical to the fixed paper loop.
	// Ignored unless Lifecycle is enabled.
	Remediate RemediateConfig
}

// RemediateConfig configures the pluggable remediation policy.
type RemediateConfig struct {
	// Policy names the policy: "" or "default" (the fixed paper loop),
	// "escalating" (retest low-score suspects in place before draining),
	// or "swap" (swap in spare silicon once a pool's repair-ticket budget
	// is exhausted).
	Policy string `scn:"policy"`
	// ScoreThreshold is the escalating policy's immediate-drain score
	// (0 means its default).
	ScoreThreshold float64 `scn:"score_threshold"`
	// MaxRetests bounds the escalating policy's in-place retests per
	// machine (0 means its default).
	MaxRetests int `scn:"max_retests"`
	// RepairTicketsPerPool budgets concurrent whole-machine repair
	// tickets per pool for the swap policy (0 means unbudgeted).
	RepairTicketsPerPool int `scn:"repair_tickets_per_pool"`
}

// SKU is one CPU product population in the fleet.
type SKU struct {
	// Name labels the product in reports.
	Name string `scn:"name"`
	// Fraction is the share of machines carrying this SKU; fractions
	// are normalized over the configured SKUs.
	Fraction float64 `scn:"fraction"`
	// DefectMultiplier scales Config.DefectsPerMachine for this SKU.
	DefectMultiplier float64 `scn:"defect_multiplier"`
	// PreAgeDays is the maximum in-service age (uniform per machine) at
	// simulation start — older products carry partially elapsed onset
	// clocks.
	PreAgeDays float64 `scn:"pre_age_days"`
}

// The production side of the model, calibrated once. Use each as a plain
// float64 operand: a constant expression that combines two is folded
// exactly at compile time, which moves the day loop's float arithmetic
// and every pinned output.
const (
	// dailyOpsPerCore is the production operation volume per core per
	// day that defects can act on.
	dailyOpsPerCore = 2e7
	// §2's risk ladder: the probability that a corruption is caught
	// promptly by an application-level check (checksum, replica compare),
	// crashes the process or kernel (fail-noisy), raises a machine check,
	// or is detected after it is too late to retry. The rest is silent.
	pImmediateDetect = 0.25
	pCrash           = 0.15
	pMCE             = 0.05
	pLateDetect      = 0.10
	// pCoreAttribution is the probability a detected signal names the
	// specific core (vs only the machine).
	pCoreAttribution = 0.8
	// maxSignalsPerCoreDay rate-limits reporting, as production signal
	// pipelines do.
	maxSignalsPerCoreDay = 10
)

// DefaultConfig returns the calibrated configuration used by the
// experiments. The fleet is smaller than Google's but large enough for
// every statistic the paper reports to emerge.
func DefaultConfig() Config {
	return Config{
		Machines:                        4000,
		CoresPerMachine:                 32,
		Seed:                            1,
		DefectsPerMachine:               0.002,
		SoftwareBugSignalsPerMachineDay: 0.001,
		UserReportFraction:              0.05,
		ScreenOpsPerCoreDay:             50_000,
		InitialCorpus:                   5,
		CorpusGrowEveryDays:             120,
		Policy: quarantine.Policy{
			Mode:              quarantine.CoreRemoval,
			RequireConfession: true,
		},
		ConfessionConfig: screen.NewConfig(
			screen.WithPasses(60),
			screen.WithSweep(2, 1, 2),
			screen.WithMaxOps(15_000_000),
		),
	}
}

// DefectSite locates one materialized defective core.
type DefectSite struct {
	Machine string
	Core    int
	Site    *fault.Core
	// FirstActive is the simulated day the defect first became able to
	// fire (install age crossing onset).
	FirstActive simtime.Time
	// Repaired is set when the defective silicon was replaced.
	Repaired bool
	// activationTraced dedups the lifecycle trace's activation event.
	activationTraced bool
}

// Machine is the simulator's per-machine record.
type Machine struct {
	ID        string
	SKU       string
	Defective map[int]*fault.Core
	// install is the (possibly negative) simulated time the machine
	// entered service; cores age from it.
	install simtime.Time
	// cluster is the machine's scheduler record, the one owner of its
	// containment state: drains and quarantined cores live there.
	cluster *sched.Machine
}

// outOfService reports whether core runs no workload or screening: its
// machine is drained, or quarantine moved the core out of CoreHealthy.
func (m *Machine) outOfService(core int) bool {
	return m.cluster.Drained() || m.cluster.State(core) != sched.CoreHealthy
}

// pickSKU draws a SKU proportionally to Fraction.
func pickSKU(skus []SKU, total float64, rng *xrand.RNG) SKU {
	if total <= 0 {
		return skus[0]
	}
	x := rng.Float64() * total
	for _, k := range skus {
		x -= k.Fraction
		if x < 0 {
			return k
		}
	}
	return skus[len(skus)-1]
}

// MachineSKU returns the SKU name of a machine (empty if unknown).
func (f *Fleet) MachineSKU(id string) string {
	m := f.machineByID(id)
	if m == nil {
		return ""
	}
	return m.SKU
}

// Outcome classifies one corruption event per §2's risk ladder.
type Outcome int

const (
	// OutcomeImmediate is a wrong answer detected nearly immediately.
	OutcomeImmediate Outcome = iota
	// OutcomeCrash is a process/kernel crash or segfault.
	OutcomeCrash
	// OutcomeMCE is a machine check.
	OutcomeMCE
	// OutcomeLate is a wrong answer detected too late to retry.
	OutcomeLate
	// OutcomeSilent is a wrong answer never detected.
	OutcomeSilent
	numOutcomes
)

var outcomeNames = [...]string{"immediate", "crash", "mce", "late", "silent"}

func (o Outcome) String() string {
	if o < 0 || int(o) >= len(outcomeNames) {
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// repairTicket schedules one isolation's return to service.
type repairTicket struct {
	machine string
	core    int // -1 for whole-machine drain
	dueDay  int
}

// DayStats is one day of fleet telemetry — the raw series behind Fig. 1.
type DayStats struct {
	Day int
	// Corruptions is ground truth: CEE events that actually occurred.
	Corruptions int64
	// ByOutcome splits corruptions by §2 class.
	ByOutcome [numOutcomes]int64
	// AutoReports are core-attributed signals from automated sources
	// (crashes, MCEs, sanitizers, app checks, screening).
	AutoReports int
	// UserReports are human-filed suspicions.
	UserReports int
	// ScreenDetections are corpus failures from online screening.
	ScreenDetections int
	// NewQuarantines is the number of cores isolated today.
	NewQuarantines int
	// RepairsDone is the number of isolations returned to service today.
	RepairsDone int
	// ActiveDefects is the number of defective cores past onset and not
	// yet quarantined.
	ActiveDefects int
	// KV* count the tolerant key-value workload's day (zero unless
	// StartKVLoad switched the phase on): reads served, different-replica
	// retries, read-repair heals, degraded (no-majority) serves, and
	// client-visible errors.
	KVReads, KVRetries, KVRepairs, KVDegraded, KVErrors int
	// TR* count the checkpoint/retry workload's day (zero unless
	// StartTaskRun switched the phase on): granules committed, granule
	// re-executions, placements migrated, checkpoint restores, suspect
	// signals escalated, and tasks that failed (a granule out of retries,
	// or no core to place the task on).
	TRGranules, TRRetries, TRMigrations, TRRestores, TRSignals, TRFailures int
	// Life* count the machine-lifecycle ledger's day (zero unless
	// Config.Lifecycle enables the control plane): machines cordoned,
	// fully drained, permanently removed (recidivists), and moved back
	// toward service (into probation or healthy) today.
	LifeCordoned, LifeDrained, LifeRemoved, LifeReintroduced int
}

// TriageStats tracks the human-triage ledger for experiment E5. The paper
// reports that "roughly half of these human-identified suspects are
// actually proven ... to be mercurial cores — we must extract confessions
// via further testing ... The other half is a mix of false accusations and
// limited reproducibility."
type TriageStats struct {
	// Investigated counts unique human investigations (one per suspect
	// machine).
	Investigated int
	// Confirmed counts investigations whose confession screen
	// reproduced a failure.
	Confirmed int
	// FalseAccusations counts investigations that fingered a core that
	// is in truth healthy.
	FalseAccusations int
	// RealNotReproduced counts investigations of genuinely defective
	// cores whose confession screen failed to reproduce the defect —
	// the paper's "limited reproducibility".
	RealNotReproduced int
}

// Fleet is one simulated fleet.
//
// A Fleet's mutable state is owned by one goroutine: Step and Run must not
// be called concurrently. Internally each day is sharded across a worker
// pool (see tick.go); the telemetry is bit-identical at any worker count.
type Fleet struct {
	cfg         Config
	rng         *xrand.RNG
	parallelism int
	machines    []*Machine
	defects     []*DefectSite
	// siteMachines[i] is the resolved machine of defects[i] — struct-of-
	// arrays companion to the defect list, so the per-day planning loop
	// never re-parses machine ids. Kept aligned with defects by newFleet and
	// InjectDefect (sites are never removed, only marked Repaired).
	siteMachines []*Machine
	// scratch holds the day loop's pooled buffers (see tick.go).
	scratch dayScratch
	server  *report.Server
	cluster *sched.Cluster
	manager *quarantine.Manager
	allWork []corpus.Workload
	// Truth and detection ledgers.
	Triage      TriageStats
	repairQueue []repairTicket
	// Repairs counts completed repairs.
	Repairs int
	day     int
	// userSeen dedups human investigations per machine: production
	// humans investigate a suspect machine once, not per incident.
	userSeen map[string]bool
	// Observability sinks (optional; obs is bound by newFleet, trace by
	// NewRunner). Both are written only from serial phases or via
	// lock-free instruments, so they never perturb the determinism
	// contract.
	obs   *obs.Registry
	trace *obs.Trace
	// sigSeen and nominated dedup the lifecycle trace's first-signal and
	// suspect-nominated events per core; repairs reset them so replaced
	// silicon starts a fresh stream.
	sigSeen   map[sched.CoreRef]bool
	nominated map[sched.CoreRef]bool
	// signals buffers the signals a serial phase produces (the kvdb and
	// taskrun sinks, noise, user reports) until the phase hands them to
	// merge; it is empty between phases.
	signals []detect.Signal
	// kvdb workload state (see kvdb.go): the phase's config (defaults
	// applied) and stores, both zero unless StartKVLoad switched it on.
	// kvAvoid caches the day's high-score suspect cores.
	kvCfg    KVDBConfig
	kvStores []*kvStore
	kvAvoid  map[sched.CoreRef]bool
	// taskrun workload state (see taskrun.go): the phase's config
	// (defaults applied) and supervisor, both zero unless StartTaskRun
	// switched it on.
	taskCfg TaskRunConfig
	taskSup *taskrun.Supervisor
	// point is the fleet-wide operating point (see SetOperatingPoint);
	// materialized cores carry their own copy.
	point fault.OperatingPoint
	// life is the machine-lifecycle ledger (nil unless Config.Lifecycle
	// enables the control plane); lifePending buffers the day's ledger
	// transitions for DayStats; probation maps machine id → the day its
	// probation window expires. See lifecycle.go.
	life        *lifecycle.Manager
	lifePending lifeCounters
	probation   map[string]int
	// policy is the remediation policy consulted before machine-drain
	// convictions (nil unless the control plane is on); retests counts
	// in-place retests per machine for the escalating policy; poolTickets
	// tracks per-pool repair-ticket budgets for the swap policy (absent
	// key = unbudgeted); lifeAdmitted buffers machines whose deferred
	// drains the ledger admitted today, completed cluster-side in
	// lifeEndOfDay; lifeNotify mirrors ledger records to the configured
	// notifier. See lifecycle.go and internal/remediate.
	policy       remediate.Policy
	retests      map[string]int
	poolTickets  map[string]int
	lifeAdmitted []string
	lifeNotify   remediate.Notifier
}

// newFleet builds the fleet population deterministically from cfg, which
// NewRunner has validated, and routes the whole stack's telemetry — per-
// phase wall time, report-service counters, screening passes, quarantine
// and lifecycle ledger transitions, the workload phases — into reg (nil
// records nothing). Metrics never affect simulation results: recording
// consumes no randomness and changes no control flow.
func newFleet(cfg Config, reg *obs.Registry) *Fleet {
	// The quarantine manager picks its confession screen from the
	// policy; default it to the fleet's (cheap) confession config so
	// daily suspect processing does not run full deep screens.
	if cfg.Policy.ConfessionConfig.Passes == 0 {
		cfg.Policy.ConfessionConfig = cfg.ConfessionConfig
	}
	if cfg.Policy.DeclineRetry == 0 {
		cfg.Policy.DeclineRetry = 30 * simtime.Day
	}
	f := &Fleet{
		cfg:         cfg,
		rng:         xrand.New(cfg.Seed),
		parallelism: runtime.GOMAXPROCS(0),
		point:       fault.Nominal,
		server:      report.NewServer(cfg.CoresPerMachine),
		cluster:     sched.NewCluster(),
		allWork:     corpus.All(),
		userSeen:    map[string]bool{},
		sigSeen:     map[sched.CoreRef]bool{},
		nominated:   map[sched.CoreRef]bool{},
		obs:         reg,
	}
	f.server.SetMetrics(reg)
	f.manager = quarantine.NewManager(f.cluster, cfg.Policy)
	f.manager.Metrics = reg
	popRNG := f.rng.ForkString("population")
	skus := cfg.SKUs
	if len(skus) == 0 {
		skus = []SKU{{Name: "default", Fraction: 1, DefectMultiplier: 1}}
	}
	var fracTotal float64
	for _, k := range skus {
		fracTotal += k.Fraction
	}
	defectID := 0
	for i := 0; i < cfg.Machines; i++ {
		id := MachineID(i)
		sku := pickSKU(skus, fracTotal, popRNG)
		sm, err := f.cluster.AddMachine(id, cfg.CoresPerMachine)
		if err != nil {
			panic(err)
		}
		m := &Machine{ID: id, SKU: sku.Name, Defective: map[int]*fault.Core{}, cluster: sm}
		if sku.PreAgeDays > 0 {
			m.install = -simtime.Time(popRNG.Float64()*sku.PreAgeDays) * simtime.Day
		}
		// Expected defective cores per machine; Poisson-thin across cores.
		mult := sku.DefectMultiplier
		if mult == 0 {
			mult = 1
		}
		n := popRNG.Poisson(cfg.DefectsPerMachine * mult)
		if n > cfg.CoresPerMachine {
			n = cfg.CoresPerMachine
		}
		for j := 0; j < n; j++ {
			coreIdx := popRNG.Intn(cfg.CoresPerMachine)
			if _, dup := m.Defective[coreIdx]; dup {
				continue
			}
			defectID++
			d := fault.SampleDefect(fmt.Sprintf("D%04d", defectID), popRNG)
			coreName := fmt.Sprintf("%s/c%02d", id, coreIdx)
			core := fault.NewCore(coreName, popRNG, d)
			m.Defective[coreIdx] = core
			// FirstActive is wall-clock: pre-aged machines may carry
			// defects already past onset at simulation start.
			firstActive := m.install + d.Onset
			if firstActive < 0 {
				firstActive = 0
			}
			f.defects = append(f.defects, &DefectSite{
				Machine: id, Core: coreIdx, Site: core,
				FirstActive: firstActive,
			})
			f.siteMachines = append(f.siteMachines, m)
		}
		f.machines = append(f.machines, m)
	}
	// The control plane consumes no randomness.
	f.buildLifecycle()
	return f
}

// Config returns the fleet's configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Defects returns the ground-truth defect sites.
func (f *Fleet) Defects() []*DefectSite { return f.defects }

// Cluster returns the scheduler state.
func (f *Fleet) Cluster() *sched.Cluster { return f.cluster }

// Manager returns the quarantine manager.
func (f *Fleet) Manager() *quarantine.Manager { return f.manager }

// patternFraction returns the fraction of uniform operands matching the
// defect's pattern gate.
func patternFraction(d *fault.Defect) float64 {
	if d.PatternMask == 0 {
		return 1
	}
	return 1 / float64(uint64(1)<<uint(bits.OnesCount64(d.PatternMask)))
}

// opMix is the default production operation mix by class (fractions sum to
// 1): integer-heavy with meaningful copy/vector traffic, sparse crypto and
// atomics — a plausible datacenter profile.
var opMix = [fault.NumOpClasses]float64{
	fault.OpAdd:    0.22,
	fault.OpSub:    0.08,
	fault.OpMul:    0.07,
	fault.OpDiv:    0.01,
	fault.OpLogic:  0.10,
	fault.OpShift:  0.05,
	fault.OpCmp:    0.12,
	fault.OpFAdd:   0.04,
	fault.OpFMul:   0.04,
	fault.OpVec:    0.07,
	fault.OpCopy:   0.10,
	fault.OpCrypto: 0.02,
	fault.OpAtomic: 0.02,
	fault.OpLoad:   0.04,
	fault.OpStore:  0.02,
}

// dailyLambda computes the expected number of production corruptions per
// day for a defective core at its current age and operating point.
func (f *Fleet) dailyLambda(core *fault.Core) float64 {
	var lambda float64
	for i := range core.Defects {
		d := &core.Defects[i]
		rate := d.Rate(core.Point, core.Age)
		if rate <= 0 {
			continue
		}
		frac := patternFraction(d)
		for op := fault.OpClass(0); op < fault.NumOpClasses; op++ {
			if fault.UnitOf(op) != d.Unit {
				continue
			}
			lambda += rate * frac * dailyOpsPerCore * opMix[op]
		}
	}
	return lambda
}

// splitOutcomes distributes n corruption events over the §2 outcome
// classes using successive binomial thinning.
func (f *Fleet) splitOutcomes(n int64, rng *xrand.RNG) [numOutcomes]int64 {
	var out [numOutcomes]int64
	remaining := n
	probs := []struct {
		o Outcome
		p float64
	}{
		{OutcomeImmediate, pImmediateDetect},
		{OutcomeCrash, pCrash},
		{OutcomeMCE, pMCE},
		{OutcomeLate, pLateDetect},
	}
	left := 1.0
	for _, pr := range probs {
		if remaining <= 0 || left <= 0 {
			break
		}
		cond := pr.p / left
		if cond > 1 {
			cond = 1
		}
		var k int64
		if remaining > math.MaxInt32 {
			k = int64(float64(remaining) * cond)
		} else {
			k = int64(rng.Binomial(int(remaining), cond))
		}
		out[pr.o] = k
		remaining -= k
		left -= pr.p
	}
	out[OutcomeSilent] = remaining
	return out
}
