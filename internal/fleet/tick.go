package fleet

import (
	"math"
	"sort"

	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/quarantine"
	"repro/internal/sched"
	"repro/internal/screen"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// Each simulated day is a pipeline of phases. Phases that touch shared
// state (RNG forking, signal merge, quarantine decisions) run serially on
// the caller's goroutine in a fixed order; the two expensive phases — the
// per-defect production/screening work and the confession screens — are
// sharded across a worker pool. Every random stream a worker consumes is
// forked serially beforehand, one per work item, and every worker writes
// only to its own item's buffer, so the day's outcome is bit-identical at
// any worker count:
//
//	1 serial   shard plan: age cores, compute CEE intensity, fork
//	           per-site RNG streams in defect-site order
//	2 parallel per site: analytic production draws + online screening
//	           against the real corpus, buffered into siteResult
//	3 serial   single-writer merge of site buffers, in site order
//	3b/3c      optional kvdb and taskrun workloads (serial)
//	4 serial   fleet-wide software-bug noise from the day stream
//	5 mixed    human investigations: dedup serially, confess in
//	           parallel, tally the triage ledger serially
//	6 mixed    suspect processing: precompute confessions in parallel,
//	           apply quarantine decisions serially
//	7 serial   repairs
//
// Phases 3 to 5 produce signals, and each hands them to merge, the one
// way into the tracker. Whether a core is in service is read from the
// cluster (Machine.outOfService), which quarantine and drains update.
//
// screenCorpusSize returns how many corpus workloads the automated
// screener has unlocked by the given day (§6's growing test corpus).
func (f *Fleet) screenCorpusSize(day int) int {
	n := f.cfg.InitialCorpus
	if n <= 0 {
		n = len(f.allWork)
	}
	if f.cfg.CorpusGrowEveryDays > 0 {
		n += day / f.cfg.CorpusGrowEveryDays
	}
	if n > len(f.allWork) {
		n = len(f.allWork)
	}
	return n
}

// siteJob is one defective core's shard of a day's work, with its
// pre-forked random streams.
type siteJob struct {
	site *DefectSite
	// lambda is the expected production corruption count; 0 means the
	// defect is latent or cannot fire at the operating point.
	lambda float64
	// doScreen marks the site for an online-screening tick today.
	doScreen bool
	// prodRNG drives the analytic outcome draws and signal attribution;
	// screenRNG drives the screening workload sampling. Both are reseeded
	// in place (ForkStringInto) serially during planning — inline values,
	// not pointers, so a reused jobs slice forks thousands of streams per
	// day without touching the heap. The streams are bit-identical to the
	// old allocating ForkString path.
	prodRNG, screenRNG xrand.RNG
}

// dayScratch holds the day loop's reusable buffers. Everything here is
// sized by the busiest day seen so far and reset (length, not capacity)
// at the start of each day, so the steady-state day loop allocates
// nothing for planning, per-site results, signal emission, or
// investigation queues. Single-goroutine ownership follows the Fleet's:
// workers only ever touch their own jobs/results elements.
type dayScratch struct {
	jobs    []siteJob
	results []siteResult
	invs    []invRequest
	// online is the day's online-screening harness, rebound (corpus
	// window, sharded counters) each day instead of reallocated.
	online screen.Online
}

// invRequest asks for a human investigation of (machine, core).
type invRequest struct {
	machine string
	core    int
}

// siteResult buffers everything one site's day produced. Workers fill it;
// the single-writer merge phase drains it in site order.
type siteResult struct {
	corruptions int64
	outcomes    [numOutcomes]int64
	active      bool
	// signals holds the rate-limited, attributed signals (production
	// outcomes and screening failures) in emission order.
	signals []detect.Signal
	// invs are the human investigations this site's incidents triggered.
	invs []invRequest
	// screenFails counts SigScreenFail entries within signals.
	screenFails int
}

// Step advances the simulation by one day and returns its telemetry.
func (f *Fleet) Step() DayStats {
	day := f.day
	f.day++
	now := simtime.Time(day) * simtime.Day
	st := DayStats{Day: day}
	dayRNG := f.rng.Fork(uint64(day) + 0x9e37)
	pc := f.newPhaseClock()

	// Phase 1: shard plan (serial). All forks happen here, in defect-site
	// order. Ground-truth trace events (defect population, activations) are
	// part of planning: they depend only on the defect sites, never on
	// worker output.
	f.traceDefects(day, now)
	size := f.screenCorpusSize(day)
	sc := &f.scratch
	online := &sc.online
	online.BudgetOps = f.cfg.ScreenOpsPerCoreDay
	online.Workloads = f.allWork[:size]
	online.Bind(f.obs, f.parallelism)
	sc.jobs = sc.jobs[:0]
	for i, site := range f.defects {
		m := f.siteMachines[i]
		// Repaired sites keep their ledger entry but the silicon is gone:
		// without this skip a repaired core's ghost kept corrupting (and
		// spamming signals a healthy-core confession could never confirm).
		if site.Repaired || m.outOfService(site.Core) {
			continue
		}
		core := site.Site
		core.Age = now - m.install
		j := siteJob{site: site, lambda: f.dailyLambda(core)}
		j.doScreen = f.cfg.ScreenOpsPerCoreDay > 0 && core.Mercurial()
		if j.lambda <= 0 && !j.doScreen {
			continue
		}
		sc.jobs = append(sc.jobs, j)
		jp := &sc.jobs[len(sc.jobs)-1]
		dayRNG.ForkStringInto("prod:", core.ID, &jp.prodRNG)
		dayRNG.ForkStringInto("screen:", core.ID, &jp.screenRNG)
	}
	jobs := sc.jobs
	pc.mark("plan")

	// Phase 2: per-site work (parallel). Each worker owns its site's core
	// and its own result slot; nothing shared is written. Result buffers
	// (signal and investigation arenas included) are reused across days —
	// runSite resets lengths, capacity stays.
	if cap(sc.results) < len(jobs) {
		grown := make([]siteResult, len(jobs))
		copy(grown, sc.results)
		sc.results = grown
	}
	results := sc.results[:len(jobs)]
	parallel.ForEachWorker(f.parallelism, len(jobs), func(w, k int) {
		f.runSite(&jobs[k], &results[k], online, now, w)
	})
	pc.mark("sites")

	// Phase 3: single-writer merge, in site order. First-signal trace
	// events are emitted here, not in the workers, so the stream order is
	// the serial site order at any parallelism.
	invs := sc.invs[:0]
	for i := range results {
		r := &results[i]
		if r.active {
			st.ActiveDefects++
		}
		st.Corruptions += r.corruptions
		for o := Outcome(0); o < numOutcomes; o++ {
			st.ByOutcome[o] += r.outcomes[o]
		}
		st.ScreenDetections += r.screenFails
		r.signals = f.merge(r.signals, &st.AutoReports)
		invs = append(invs, r.invs...)
	}
	pc.mark("merge")

	// Phase 3b: the tolerant kvdb workload (serial, optional). Runs after
	// the merge so its health view reflects yesterday's quarantines, and
	// before suspect processing so today's serving signals can nominate
	// today. Consumes randomness only when enabled.
	if len(f.kvStores) > 0 {
		f.runKVDB(dayRNG, &st)
		pc.mark("kvdb")
	}

	// Phase 3c: the checkpoint/retry batch workload (serial, optional).
	// Same position rationale as kvdb: after the merge so placement sees
	// yesterday's quarantines, before suspect processing so today's
	// escalations can nominate today.
	if f.taskSup != nil {
		f.runTaskRun(dayRNG, &st)
		pc.mark("taskrun")
	}

	// Phase 4: background software-bug noise over the whole fleet, spread
	// evenly — the signals the concentration test must reject.
	noiseLambda := f.cfg.SoftwareBugSignalsPerMachineDay * float64(len(f.machines))
	noise := dayRNG.Poisson(noiseLambda)
	for i := 0; i < noise; i++ {
		m := f.machines[dayRNG.Intn(len(f.machines))]
		if m.cluster.Drained() {
			continue
		}
		coreIdx := dayRNG.Intn(f.cfg.CoresPerMachine)
		f.signals = append(f.signals, detect.Signal{
			Machine: m.ID, Core: coreIdx, Kind: detect.SigCrash,
			Time: now, Detail: "software bug",
		})
		// Some bug-noise also triggers human investigation — the false
		// accusations in §6's triage ledger.
		if dayRNG.Bernoulli(f.cfg.UserReportFraction) {
			invs = append(invs, invRequest{machine: m.ID, core: coreIdx})
		}
	}
	f.signals = f.merge(f.signals, &st.AutoReports)
	pc.mark("noise")

	// Phase 5: human triage — confession screens run in parallel, the
	// ledger is tallied serially. The investigation queue's storage is
	// day-scoped scratch; keep whatever capacity the appends grew.
	sc.invs = invs
	f.processInvestigations(invs, now, dayRNG, &st)
	pc.mark("triage")

	// Phase 6: suspect processing — concentration-tested nominations flow
	// into quarantine with confession testing against the real core.
	f.processSuspects(now, dayRNG, &st)
	pc.mark("suspects")

	// Phase 7: repairs — isolated hardware returns to service with healthy
	// replacement silicon after the RMA turnaround.
	f.processRepairs(day, &st)
	pc.mark("repairs")

	// Phase 7b: lifecycle probation expiry and day-counter flush (serial;
	// no-op when the control plane is disabled).
	f.lifeEndOfDay(day, &st)

	return st
}

// runSite performs one site's day: analytic production-workload CEE
// manifestation and, for mercurial cores, a real online-screening tick. It
// runs on worker goroutine w and must only touch the site's own core and
// its own result slot (f is read-only here). r is scratch reused across
// days: lengths reset here, capacities persist as the signal/investigation
// arenas.
func (f *Fleet) runSite(j *siteJob, r *siteResult, online *screen.Online, now simtime.Time, w int) {
	r.corruptions = 0
	r.outcomes = [numOutcomes]int64{}
	r.active = false
	r.signals = r.signals[:0]
	r.invs = r.invs[:0]
	r.screenFails = 0
	site := j.site
	if j.lambda > 0 {
		r.active = true
		lambda := j.lambda
		// Cap: a core cannot corrupt more ops than it executes.
		if lambda > dailyOpsPerCore {
			lambda = dailyOpsPerCore
		}
		var n int64
		if lambda > 1e6 {
			// Deterministic high-rate defects: Poisson ≈ mean.
			n = int64(lambda)
		} else {
			n = int64(j.prodRNG.Poisson(lambda))
		}
		if n > 0 {
			r.corruptions = n
			r.outcomes = f.splitOutcomes(n, &j.prodRNG)
			f.emitSignals(site, r, now, &j.prodRNG)
		}
	}
	if j.doScreen {
		// Online screening: real corpus execution against the defective
		// core (healthy cores cannot fail self-checks, so only their cost
		// would matter; it is accounted implicitly by the budget).
		found, _ := online.TickOn(site.Site, &j.screenRNG, w)
		for range found {
			r.signals = append(r.signals, detect.Signal{
				Machine: site.Machine, Core: site.Core,
				Kind: detect.SigScreenFail, Time: now,
			})
			r.screenFails++
		}
	}
}

// emitSignals converts one site's daily outcomes into rate-limited signal
// and investigation buffers.
func (f *Fleet) emitSignals(site *DefectSite, r *siteResult, now simtime.Time, rng *xrand.RNG) {
	budget := maxSignalsPerCoreDay
	emit := func(kind detect.SignalKind, count int64) {
		for i := int64(0); i < count && budget > 0; i++ {
			budget--
			core := site.Core
			if !rng.Bernoulli(pCoreAttribution) {
				core = -1 // machine-level attribution only
			}
			r.signals = append(r.signals, detect.Signal{
				Machine: site.Machine, Core: core, Kind: kind, Time: now,
			})
		}
	}
	emit(detect.SigAppError, r.outcomes[OutcomeImmediate])
	emit(detect.SigCrash, r.outcomes[OutcomeCrash])
	emit(detect.SigMCE, r.outcomes[OutcomeMCE])
	emit(detect.SigAppError, r.outcomes[OutcomeLate])
	// Detected incidents spawn human investigations at the configured
	// rate; humans usually finger the right core, sometimes a neighbour.
	detected := r.outcomes[OutcomeImmediate] + r.outcomes[OutcomeCrash] + r.outcomes[OutcomeLate]
	investigations := rng.Binomial(int(min64(detected, 50)), f.cfg.UserReportFraction)
	for i := 0; i < investigations; i++ {
		coreIdx := site.Core
		if !rng.Bernoulli(pCoreAttribution) {
			coreIdx = rng.Intn(f.cfg.CoresPerMachine) // wrong core fingered
		}
		r.invs = append(r.invs, invRequest{machine: site.Machine, core: coreIdx})
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// forceRealConfessions disables the healthy-core confession fast path so
// the equivalence regression test can prove the skip is behavior-
// identical. Never set outside tests.
var forceRealConfessions = false

// confessOrSkip runs a confession screen, short-circuiting provably clean
// ones: a core with no defects cannot fail a self-check, so Confess would
// burn the full multi-million-op budget to report Confirmed=false with an
// empty report — which is exactly what this returns for free. The
// profiling that motivated this found ~90% of day-loop time inside
// confession screens of healthy cores fingered by software-bug noise.
//
// Determinism: the skipped screen's RNG stream is an independent fork
// consumed by nobody else, so not draining it cannot shift any other
// stream; downstream consumers (triage tally, quarantine manager, trace)
// read only Confirmed and the report's detections — both identical to a
// really-executed healthy screen.
func confessOrSkip(fc *fault.Core, cfg screen.Config, rng *xrand.RNG) detect.Confession {
	if fc.Healthy() && !forceRealConfessions {
		return detect.Confession{CoreID: fc.ID, Report: screen.Report{CoreID: fc.ID}}
	}
	return detect.Confess(fc, cfg, rng)
}

// confessJob is one deferred confession screen, with the stream it must
// consume pre-forked.
type confessJob struct {
	machine        string
	core           int
	truthDefective bool
	fc             *fault.Core
	rng            *xrand.RNG
	conf           detect.Confession
}

// processInvestigations records user reports, dedups human investigations
// (production humans investigate a suspect machine once, not per
// incident), extracts confessions via further testing (§6) in parallel,
// and tallies the triage ledger in request order.
func (f *Fleet) processInvestigations(invs []invRequest, now simtime.Time, dayRNG *xrand.RNG, st *DayStats) {
	var jobs []confessJob
	for _, iv := range invs {
		f.signals = append(f.signals, detect.Signal{
			Machine: iv.machine, Core: iv.core, Kind: detect.SigUserReport, Time: now,
		})
		if f.userSeen[iv.machine] {
			continue
		}
		f.userSeen[iv.machine] = true
		f.Triage.Investigated++
		ref := sched.CoreRef{Machine: iv.machine, Core: iv.core}
		jobs = append(jobs, confessJob{
			machine:        iv.machine,
			core:           iv.core,
			truthDefective: f.machineByID(iv.machine).Defective[iv.core] != nil,
			fc:             f.coreFor(ref), // may fork f.rng: serial only
			rng:            dayRNG.ForkString("confess:" + ref.String()),
		})
	}
	f.signals = f.merge(f.signals, &st.UserReports)
	cfg := f.confessionConfig()
	// The cores are distinct (one investigation per machine per run), so
	// the screens shard cleanly.
	parallel.ForEach(f.parallelism, len(jobs), func(k int) {
		jobs[k].conf = confessOrSkip(jobs[k].fc, cfg, jobs[k].rng)
	})
	for i := range jobs {
		f.traceConfession(jobs[i].machine, jobs[i].core, jobs[i].conf.Confirmed, "triage", now)
		switch {
		case jobs[i].conf.Confirmed:
			f.Triage.Confirmed++
		case jobs[i].truthDefective:
			f.Triage.RealNotReproduced++
		default:
			f.Triage.FalseAccusations++
		}
	}
}

// coreFor returns the materialized defective core at ref, or a fresh
// healthy core (healthy cores are not stored). It forks the fleet's master
// stream for healthy cores and must only be called from the serial phases.
func (f *Fleet) coreFor(ref sched.CoreRef) *fault.Core {
	m := f.machineByID(ref.Machine)
	if core, ok := m.Defective[ref.Core]; ok {
		return core
	}
	return fault.NewCore(ref.String(), f.rng.ForkString("healthy:"+ref.String()))
}

func (f *Fleet) confessionConfig() screen.Config {
	cfg := f.cfg.ConfessionConfig
	if cfg.Passes == 0 {
		cfg = screen.NewConfig(screen.WithPasses(60), screen.WithSweep(2, 1, 2),
			screen.WithMaxOps(15_000_000))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = f.obs
	}
	return cfg
}

// processSuspects runs the tracker's nominations through the quarantine
// manager, binding confessions to the real cores. The isolation decisions
// are inherently serial (each may drain a machine or shift cluster
// capacity), but the expensive part — the deep confession screens — is
// precomputed in parallel for every suspect the manager would screen, each
// against its own core with its own pre-forked stream.
func (f *Fleet) processSuspects(now simtime.Time, dayRNG *xrand.RNG, st *DayStats) {
	suspects := f.server.Suspects()
	if len(suspects) == 0 {
		return
	}
	f.traceNominations(suspects, now)
	if f.life != nil {
		// Ledger first contact: nominated machines turn suspect (no-op for
		// machines already being acted on). Suspect order is deterministic,
		// so the ledger's transition sequence is too.
		for _, s := range suspects {
			f.life.MarkSuspect(s.Machine, f.day-1, "concentration nomination")
		}
	}
	jobs := make([]confessJob, len(suspects))
	var runnable []int
	for i, s := range suspects {
		ref := sched.CoreRef{Machine: s.Machine, Core: s.Core}
		jobs[i].machine, jobs[i].core = s.Machine, s.Core
		// Fork unconditionally, in suspect order, so the stream a suspect
		// consumes does not depend on its neighbours' gate outcomes.
		jobs[i].rng = dayRNG.ForkString("suspect:" + ref.String())
		if !f.manager.NeedsConfession(s, now) {
			continue
		}
		jobs[i].fc = f.coreFor(ref)
		runnable = append(runnable, i)
	}
	cfg := f.manager.ConfessionScreenConfig()
	parallel.ForEach(f.parallelism, len(runnable), func(k int) {
		j := &jobs[runnable[k]]
		j.conf = confessOrSkip(j.fc, cfg, j.rng)
	})
	// Precomputed confessions enter the trace here, serially, in suspect
	// order — not from the worker goroutines above.
	for _, k := range runnable {
		j := &jobs[k]
		f.traceConfession(j.machine, j.core, j.conf.Confirmed, "suspect", now)
	}
	for i, s := range suspects {
		ref := sched.CoreRef{Machine: s.Machine, Core: s.Core}
		if f.manager.Isolated(ref) {
			continue
		}
		// Remediation-policy gate (machine-drain mode with the control
		// plane on): the policy may retest the suspect in place instead of
		// convicting it, swap silicon instead of queueing a repair, or the
		// pool's drain budget may defer the conviction entirely. Confession
		// streams were forked above for every suspect unconditionally, so
		// skipping Handle here consumes no one else's randomness.
		swapWanted := false
		if f.policy != nil && f.cfg.Policy.Mode == quarantine.MachineDrain {
			proceed, swap := f.remediateGate(s.Machine, s.Score(), f.day-1)
			if !proceed {
				continue
			}
			swapWanted = swap
		}
		j := &jobs[i]
		rec, err := f.manager.Handle(s, now, func(cfg screen.Config) detect.Confession {
			if j.fc == nil {
				// The precompute gate said no confession would be needed
				// but the manager asked anyway (e.g. state changed while
				// handling an earlier suspect): run it now, on the stream
				// reserved for this suspect.
				conf := confessOrSkip(f.coreFor(ref), cfg, j.rng)
				f.traceConfession(j.machine, j.core, conf.Confirmed, "suspect", now)
				return conf
			}
			return j.conf
		})
		if err != nil || rec == nil {
			continue
		}
		st.NewQuarantines++
		f.traceQuarantine(s.Machine, s.Core, rec.Mode.String(), now)
		if rec.Mode == quarantine.MachineDrain {
			f.server.Forget(s.Machine)
			// A recidivist conviction escalates to permanent removal in the
			// lifecycle ledger: the machine stays drained, no repair ticket.
			permanent := f.lifeConvict(s.Machine, f.day-1)
			if swapWanted && !permanent {
				// Swap policy: replace the silicon from spares the same day
				// instead of holding capacity through repair turnaround.
				f.replaceSilicon(s.Machine, f.day-1, st)
				f.lifePending.swaps++
			} else if !permanent {
				f.scheduleRepair(s.Machine, -1, f.day-1)
			}
		} else {
			f.server.ForgetCore(s.Machine, s.Core)
			f.scheduleRepair(s.Machine, s.Core, f.day-1)
		}
	}
}

// scheduleRepair queues the RMA ticket that returns machine's core (-1:
// the whole machine) to service RepairAfterDays after day; a whole-machine
// ticket spends one of its pool's repair tickets. No-op when repair is
// disabled.
func (f *Fleet) scheduleRepair(machine string, core, day int) {
	if f.cfg.RepairAfterDays <= 0 {
		return
	}
	if core < 0 {
		f.poolTicketConsume(machine)
	}
	f.repairQueue = append(f.repairQueue, repairTicket{
		machine: machine, core: core, dueDay: day + f.cfg.RepairAfterDays,
	})
}

// processRepairs completes due repair tickets: the defective silicon is
// replaced, capacity is restored, and the (new) core is eligible for
// placement again.
func (f *Fleet) processRepairs(day int, st *DayStats) {
	if f.cfg.RepairAfterDays <= 0 {
		return
	}
	keep := f.repairQueue[:0]
	for _, tk := range f.repairQueue {
		if tk.dueDay > day {
			keep = append(keep, tk)
			continue
		}
		if tk.core < 0 {
			f.replaceSilicon(tk.machine, day, st)
			f.poolTicketRestore(tk.machine)
			continue
		}
		ref := sched.CoreRef{Machine: tk.machine, Core: tk.core}
		f.releaseCore(ref, day)
		if _, err := f.cluster.SetCoreState(ref, sched.CoreHealthy, nil); err == nil {
			f.Repairs++
			st.RepairsDone++
			f.traceRepair(tk.machine, tk.core, day)
		}
		f.lifeCoreRepaired(tk.machine, day)
	}
	f.repairQueue = keep
}

// replaceSilicon returns a drained machine to service on new silicon —
// the whole-machine repair of the RMA loop and the swap policy's
// same-day swap alike. Defective cores are visited in ascending order so
// the trace (and the manager ledger it mirrors) does not depend on map
// iteration. Any record left on the machine belongs to a healthy core a
// drain convicted without a confession; the new silicon clears it too,
// in isolation order.
func (f *Fleet) replaceSilicon(machine string, day int, st *DayStats) {
	for _, idx := range sortedDefectiveCores(f.machineByID(machine)) {
		f.releaseCore(sched.CoreRef{Machine: machine, Core: idx}, day)
		f.traceRepair(machine, idx, day)
	}
	for _, rec := range f.manager.Records() {
		if rec.Ref.Machine == machine {
			f.releaseCore(rec.Ref, day)
		}
	}
	if err := f.cluster.Undrain(machine); err == nil {
		f.Repairs++
		st.RepairsDone++
		f.traceRepair(machine, -1, day)
	}
	f.lifeRepairComplete(machine, day)
}

// releaseCore retires the defect at ref and drops its isolation record.
func (f *Fleet) releaseCore(ref sched.CoreRef, day int) {
	f.retireDefect(ref.Machine, ref.Core)
	if f.manager.Isolated(ref) {
		f.traceRelease(ref, day)
	}
	f.manager.Release(ref)
}

// merge is the day's one way into the tracker: every phase hands the
// signals it produced here, in its own deterministic order. The tracker
// ingests them as one batch, count (AutoReports or UserReports) tallies
// them, and each core's first signal enters the lifecycle trace. It
// returns sigs emptied, for the caller to reuse as its buffer.
func (f *Fleet) merge(sigs []detect.Signal, count *int) []detect.Signal {
	*count += len(sigs)
	f.server.IngestBatch(sigs)
	f.traceFirstSignals(sigs)
	return sigs[:0]
}

// bufferSignal is the kvdb and taskrun phases' signal sink: it holds each
// signal for the phase's merge.
func (f *Fleet) bufferSignal(sig detect.Signal) error {
	f.signals = append(f.signals, sig)
	return nil
}

// today is the simulated time of the day being stepped, the timestamp
// the kvdb and taskrun phases put on their signals.
func (f *Fleet) today() simtime.Time { return simtime.Time(f.day-1) * simtime.Day }

// sortedDefectiveCores returns the machine's defective core indices in
// ascending order.
func sortedDefectiveCores(m *Machine) []int {
	idxs := make([]int, 0, len(m.Defective))
	for idx := range m.Defective {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs
}

// retireDefect marks the defect site at (machine, core) repaired and
// removes the defective silicon from the machine.
func (f *Fleet) retireDefect(machine string, core int) {
	m := f.machineByID(machine)
	if _, ok := m.Defective[core]; !ok {
		return
	}
	delete(m.Defective, core)
	for _, site := range f.defects {
		if site.Machine == machine && site.Core == core {
			site.Repaired = true
		}
	}
}

// machineByID is O(1) via index arithmetic: IDs are dense ("m%05d").
func (f *Fleet) machineByID(id string) *Machine {
	// Parse the numeric suffix without fmt.Sscanf for speed.
	n := 0
	for i := 1; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return f.machines[n]
}

// WeeklyRate aggregates a daily series into per-machine weekly report
// rates — the two curves of Fig. 1.
type WeeklyRate struct {
	Week int
	// User and Auto are reports per machine per week.
	User, Auto float64
}

// WeeklyRates computes Fig. 1's series from a daily run.
func WeeklyRates(days []DayStats, machines int) []WeeklyRate {
	if machines <= 0 {
		return nil
	}
	var out []WeeklyRate
	for start := 0; start < len(days); start += 7 {
		end := start + 7
		if end > len(days) {
			end = len(days)
		}
		var user, auto int
		for _, d := range days[start:end] {
			user += d.UserReports
			auto += d.AutoReports
		}
		out = append(out, WeeklyRate{
			Week: start / 7,
			User: float64(user) / float64(machines),
			Auto: float64(auto) / float64(machines),
		})
	}
	return out
}

// Normalize scales both series so the first non-zero auto rate is 1 —
// Fig. 1 is "normalized to an arbitrary baseline".
func Normalize(rates []WeeklyRate) []WeeklyRate {
	var base float64
	for _, r := range rates {
		if r.Auto > 0 {
			base = r.Auto
			break
		}
	}
	if base == 0 {
		return rates
	}
	out := make([]WeeklyRate, len(rates))
	for i, r := range rates {
		out[i] = WeeklyRate{Week: r.Week, User: r.User / base, Auto: r.Auto / base}
	}
	return out
}

// TrendSlope fits a least-squares line to the auto series and returns its
// slope per week — the "gradually increasing" claim of Fig. 1 is slope>0.
func TrendSlope(rates []WeeklyRate, pick func(WeeklyRate) float64) float64 {
	n := float64(len(rates))
	if n < 2 {
		return 0
	}
	var sx, sy, sxy, sxx float64
	for _, r := range rates {
		x := float64(r.Week)
		y := pick(r)
		sx += x
		sy += y
		sxy += x * y
		sxx += x * x
	}
	denom := n*sxx - sx*sx
	if math.Abs(denom) < 1e-12 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}
