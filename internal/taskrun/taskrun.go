// Package taskrun is the §7 execution runtime the mitigation toolbox was
// missing: a supervisor that runs work through engine.Engine in
// checkpointed granules and makes the task *finish correctly* on a
// machine with a mercurial core.
//
// Each granule's nondeterministic inputs are read through a
// replay.Recorder, so the live execution produces a replay.Tape as a side
// effect. A committed granule is a checkpoint: its output bytes are
// appended to the task result and never re-derived. When a granule fails
// — the work errors (self-check mismatch), the engine traps, the caller's
// checksum rejects the output, or paranoid DMR disagrees — the supervisor
// restores the last checkpoint and re-executes the granule *from the
// tape* on a different core (sched placement honoring
// CoreRestricted/CoreOffline), with bounded exponential backoff. Because
// the retry consumes the identical input sequence, a different answer can
// only come from the hardware; re-execution doubles as RepTFD-style fault
// detection.
//
// Escalation follows the Facebook SDC-at-scale playbook: repeated
// divergences attributed to the same core are themselves a
// high-confidence suspect signal, emitted as a core-attributed
// detect.Signal through the same pluggable SignalSink the kvdb serving
// layer uses — so the report/quarantine pipeline reroutes future granules
// away from the core without any taskrun-specific plumbing.
package taskrun

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/backoff"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvdb"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// SignalSink is where escalated divergence signals go — the same
// pluggable sink type the kvdb serving layer uses, so any kvdb sink
// plugs in directly.
type SignalSink = kvdb.SignalSink

// Work is a granule body: a computation whose nondeterministic inputs all
// cross the replay boundary, making it re-executable from a tape.
type Work = mitigate.ReplayComputation

// CoreProvider resolves a scheduler core reference to the fault-model
// core that actually executes there.
type CoreProvider func(ref sched.CoreRef) *fault.Core

// ErrGranuleFailed is wrapped by Run when a granule exhausts its retry
// budget without committing.
var ErrGranuleFailed = errors.New("taskrun: granule retries exhausted")

// Granule is one checkpointed unit of a task.
type Granule struct {
	// Name labels the granule on tapes, in errors, and in signals.
	Name string
	// Units lists the execution units the granule exercises, for
	// restricted-core admission.
	Units []fault.Unit
	// Work is the computation; required.
	Work Work
	// Verify optionally checks the output (an end-to-end checksum);
	// returning false is a granule failure.
	Verify func(out []byte) bool
}

// Task is an ordered sequence of granules committed one at a time.
type Task struct {
	ID string
	// Start optionally pins the first placement to a specific core;
	// if that core is unavailable the supervisor falls back to normal
	// placement.
	Start *sched.CoreRef
	// Granules run in order; each commits independently.
	Granules []Granule
}

// Stats counts supervisor activity. TaskResult carries the per-task
// deltas; Supervisor.Stats the running totals.
type Stats struct {
	Tasks       int // tasks run to completion or failure
	TasksFailed int // tasks that exhausted a granule's retries
	Granules    int // granules committed (including recovered ones)
	Restores    int // checkpoint restores (failed attempts)
	Retries     int // re-executions after a restore
	Migrations  int // placements moved off a failing core
	// TapeDivergences counts replay attempts that could not follow the
	// tape (exhaustion/kind mismatch) — control-flow divergence blamed
	// on the recording core.
	TapeDivergences int
	Divergences     int // total divergences attributed to any core
	SignalsSent     int
	SignalsDropped  int
	Ops             uint64 // engine ops across all attempts
}

// add folds b into s.
func (s *Stats) add(b Stats) {
	s.Tasks += b.Tasks
	s.TasksFailed += b.TasksFailed
	s.Granules += b.Granules
	s.Restores += b.Restores
	s.Retries += b.Retries
	s.Migrations += b.Migrations
	s.TapeDivergences += b.TapeDivergences
	s.Divergences += b.Divergences
	s.SignalsSent += b.SignalsSent
	s.SignalsDropped += b.SignalsDropped
	s.Ops += b.Ops
}

// TaskResult is the outcome of one task.
type TaskResult struct {
	// Output is the concatenation of committed granule outputs, in
	// granule order — byte-identical regardless of how many retries or
	// migrations the run needed.
	Output []byte
	// Path lists the cores the task occupied, in order; len > 1 means it
	// migrated.
	Path []sched.CoreRef
	// Stats holds this task's deltas.
	Stats Stats
}

// Config tunes a Supervisor.
type Config struct {
	// MaxRetries bounds re-executions per granule after the initial
	// attempt. 0 means the default (3); negative disables retries.
	MaxRetries int
	// DivergenceThreshold is how many divergences a single core
	// accumulates before further failures there emit suspect signals.
	// 0 means the default (2) — one bad granule could be the task's own
	// bug; a repeat offender is a core problem.
	DivergenceThreshold int
	// Paranoid makes every successful granule re-run DMR-style on a
	// second idle core from its tape; disagreement is a retryable fault.
	Paranoid bool
	// Sink receives escalated divergence signals; nil drops them.
	Sink SignalSink
	// Now timestamps signals; nil leaves Time zero.
	Now func() simtime.Time
	// RetryBackoff is the first retry's delay; doubled per retry up to
	// MaxBackoff (default 8×RetryBackoff). Zero disables sleeping.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Metrics, when set, receives taskrun_* instruments.
	Metrics *obs.Registry
	// OnCommit, when set, observes every granule commit — a test seam
	// for injecting churn between granules.
	OnCommit func(taskID string, granule int, ref sched.CoreRef)

	// sleep is the backoff sleeper; tests replace it.
	sleep func(time.Duration)
}

// withDefaults resolves the config's zero values.
func (c Config) withDefaults() Config {
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 3
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.DivergenceThreshold <= 0 {
		c.DivergenceThreshold = 2
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * c.RetryBackoff
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// Supervisor drives tasks through the checkpoint/retry state machine.
// It is single-goroutine, like the engines it runs.
type Supervisor struct {
	cluster *sched.Cluster
	cores   CoreProvider
	cfg     Config
	// div tracks cumulative divergences per core across tasks —
	// recidivism is the escalation signal.
	div   map[sched.CoreRef]int
	stats Stats
}

// NewSupervisor builds a supervisor over an existing cluster. cores
// resolves placements to executable cores.
func NewSupervisor(cluster *sched.Cluster, cores CoreProvider, cfg Config) (*Supervisor, error) {
	if cluster == nil {
		return nil, errors.New("taskrun: nil cluster")
	}
	if cores == nil {
		return nil, errors.New("taskrun: nil core provider")
	}
	return &Supervisor{
		cluster: cluster,
		cores:   cores,
		cfg:     cfg.withDefaults(),
		div:     map[sched.CoreRef]int{},
	}, nil
}

// Stats returns the cumulative counters.
func (s *Supervisor) Stats() Stats { return s.stats }

// Divergences returns how many divergences have been attributed to ref.
func (s *Supervisor) Divergences(ref sched.CoreRef) int { return s.div[ref] }

// counter is a nil-safe registry accessor.
func (s *Supervisor) counter(name string, labels ...obs.Label) *obs.Counter {
	if s.cfg.Metrics == nil {
		return nil
	}
	return s.cfg.Metrics.Counter(name, labels...)
}

// Run executes the task's granules in order, committing each at most
// once. inputs supplies the live nondeterministic input stream; retries
// replay the recorded tape instead of drawing fresh inputs, so the
// committed output does not depend on which attempt succeeded.
func (s *Supervisor) Run(t *Task, inputs *xrand.RNG) (TaskResult, error) {
	var res TaskResult
	defer func() {
		s.stats.add(res.Stats)
		if res.Stats.TasksFailed > 0 {
			s.counter("taskrun_tasks_failed_total").Inc()
		}
	}()
	res.Stats.Tasks++
	if t == nil || t.ID == "" {
		res.Stats.TasksFailed++
		return res, errors.New("taskrun: task needs an ID")
	}
	if len(t.Granules) == 0 {
		res.Stats.TasksFailed++
		return res, fmt.Errorf("taskrun: task %q has no granules", t.ID)
	}
	if inputs == nil {
		res.Stats.TasksFailed++
		return res, fmt.Errorf("taskrun: task %q needs an input stream", t.ID)
	}
	st := &sched.Task{ID: t.ID, Units: unionUnits(t.Granules)}
	ref, err := s.place(t, st)
	if err != nil {
		res.Stats.TasksFailed++
		return res, err
	}
	defer s.cluster.Finish(t.ID)
	res.Path = append(res.Path, ref)

	for gi := range t.Granules {
		// The quarantine pipeline may have evicted us between granules
		// (SetCoreState on a suspect core). Re-place and carry on; the
		// committed prefix is the checkpoint, nothing re-runs.
		if cur, ok := s.cluster.Lookup(t.ID); ok {
			ref = cur
		} else {
			ref, err = s.cluster.Place(st)
			if err != nil {
				res.Stats.TasksFailed++
				return res, fmt.Errorf("taskrun: task %q evicted and unplaceable: %w", t.ID, err)
			}
			s.noteMigration(&res, ref)
		}
		out, gerr := s.runGranule(t, gi, st, &ref, inputs, &res)
		if gerr != nil {
			res.Stats.TasksFailed++
			return res, gerr
		}
		res.Output = append(res.Output, out...)
		if s.cfg.OnCommit != nil {
			s.cfg.OnCommit(t.ID, gi, ref)
		}
	}
	return res, nil
}

// place performs the task's initial placement, honoring Start when the
// pinned core is available.
func (s *Supervisor) place(t *Task, st *sched.Task) (sched.CoreRef, error) {
	if t.Start != nil {
		if ref, err := s.cluster.PlaceAt(st, *t.Start); err == nil {
			return ref, nil
		}
		// Pinned core gone (quarantined, drained, occupied): any core.
	}
	return s.cluster.Place(st)
}

// runGranule drives one granule through run → verify → commit |
// restore-and-migrate until it commits or the retry budget runs out.
func (s *Supervisor) runGranule(t *Task, gi int, st *sched.Task, ref *sched.CoreRef, inputs *xrand.RNG, res *TaskResult) ([]byte, error) {
	g := &t.Granules[gi]
	if g.Work == nil {
		return nil, fmt.Errorf("taskrun: task %q granule %d (%s) has no work", t.ID, gi, g.Name)
	}
	var tape *replay.Tape
	var tapeOrigin sched.CoreRef
	for attempt := 0; attempt <= s.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			res.Stats.Retries++
			s.counter("taskrun_retries_total").Inc()
			s.backoff(attempt - 1)
		}
		core := s.cores(*ref)
		if core == nil {
			return nil, fmt.Errorf("taskrun: no core behind %s", *ref)
		}
		live := tape == nil
		var src replay.Source
		var rec *replay.Recorder
		if live {
			rec = &replay.Recorder{
				Label:   g.Name,
				NextU64: inputs.Uint64,
				NextBytes: func() []byte {
					b := make([]byte, 32)
					inputs.Bytes(b)
					return b
				},
				NextBool: func() bool { return inputs.Uint64()&1 == 1 },
			}
			src = rec
		} else {
			src = replay.NewReplayer(tape)
		}

		e := engine.New(core)
		before := core.TotalOps()
		start := time.Now()
		out, err := g.Work(e, src)
		res.Stats.Ops += core.TotalOps() - before
		s.observeLatency(g, core.TotalOps()-before, time.Since(start))
		if live {
			// Keep the recorded prefix even on failure: the retry feeds
			// the identical inputs, so divergence isolates the hardware.
			tape = rec.Tape()
			tapeOrigin = *ref
		} else if err != nil && isReplayDivergence(err) {
			// The replica could not follow the tape: control-flow
			// divergence, blamed on the core that recorded it. Drop the
			// tape and re-record live on the current core.
			res.Stats.TapeDivergences++
			res.Stats.Restores++
			s.counter("taskrun_tape_divergences_total").Inc()
			s.counter("taskrun_checkpoint_restores_total").Inc()
			s.noteDivergence(tapeOrigin, fmt.Sprintf("replay of granule %q diverged: %v", g.Name, err), res)
			tape = nil
			continue
		}

		reason := ""
		switch {
		case err != nil:
			reason = "self-check: " + err.Error()
		case e.Trapped() != nil:
			reason = "trap: " + e.Trapped().Error()
		case g.Verify != nil && !g.Verify(out):
			reason = "checksum failure"
		}
		if reason == "" && s.cfg.Paranoid {
			if vref, agree := s.paranoidCheck(g, st, *ref, tape, out, res); !agree {
				reason = "dmr disagreement"
				// DMR cannot attribute: blame both sides and let
				// concentration sort it out.
				s.noteDivergence(vref, fmt.Sprintf("dmr disagreement on granule %q", g.Name), res)
			}
		}
		if reason == "" {
			outcome := "committed"
			if attempt > 0 {
				outcome = "recovered"
			}
			s.counter("taskrun_granules_total", obs.L("outcome", outcome)).Inc()
			res.Stats.Granules++
			return out, nil
		}

		// Restore the checkpoint and migrate off the suspect core.
		res.Stats.Restores++
		s.counter("taskrun_checkpoint_restores_total").Inc()
		s.noteDivergence(*ref, fmt.Sprintf("granule %q attempt %d: %s", g.Name, attempt, reason), res)
		if next, merr := s.migrateAway(t.ID, st, *ref, res); merr == nil {
			*ref = next
		}
	}
	s.counter("taskrun_granules_total", obs.L("outcome", "failed")).Inc()
	return nil, fmt.Errorf("taskrun: task %q granule %q: %w", t.ID, g.Name, ErrGranuleFailed)
}

// paranoidCheck replays a successful granule on a second idle core and
// compares outputs. The verifier is the idle admissible core with the
// fewest divergences on record — DMR cannot attribute a disagreement, so
// letting a known-suspect core veto results would livelock the retry
// loop. Returns the verifier used and whether it agreed; when no idle
// admissible core exists the check is skipped (capacity over paranoia)
// and agree is true.
func (s *Supervisor) paranoidCheck(g *Granule, st *sched.Task, cur sched.CoreRef, tape *replay.Tape, out []byte, res *TaskResult) (sched.CoreRef, bool) {
	probe := &sched.Task{ID: st.ID + "/verify", Units: g.Units}
	var vref sched.CoreRef
	found := false
	for _, cand := range s.cluster.IdleCores(probe) {
		if cand == cur {
			continue
		}
		if !found || s.div[cand] < s.div[vref] {
			vref, found = cand, true
		}
	}
	if !found {
		return cur, true
	}
	core := s.cores(vref)
	if core == nil {
		return cur, true
	}
	agree, vst, _ := mitigate.VerifyReplay(engine.New(core), g.Work, tape, out)
	res.Stats.Ops += vst.Ops
	return vref, agree
}

// migrateAway moves the task off bad, re-placing from scratch if external
// churn already evicted it.
func (s *Supervisor) migrateAway(taskID string, st *sched.Task, bad sched.CoreRef, res *TaskResult) (sched.CoreRef, error) {
	avoid := func(r sched.CoreRef) bool { return r == bad }
	var (
		next sched.CoreRef
		err  error
	)
	if _, placed := s.cluster.Lookup(taskID); placed {
		next, err = s.cluster.MigrateAvoid(taskID, avoid)
	} else if ref, found := s.cluster.FindIdle(st, avoid); found {
		next, err = s.cluster.PlaceAt(st, ref)
	} else {
		next, err = s.cluster.Place(st)
	}
	if err != nil {
		return bad, err
	}
	s.noteMigration(res, next)
	return next, nil
}

// noteMigration counts a placement change and records it on the path.
func (s *Supervisor) noteMigration(res *TaskResult, ref sched.CoreRef) {
	res.Stats.Migrations++
	s.counter("taskrun_migrations_total").Inc()
	res.Path = append(res.Path, ref)
}

// noteDivergence attributes one divergence to ref; past the threshold,
// each further divergence emits a core-attributed suspect signal, so a
// recidivist core keeps feeding the tracker's concentration test.
func (s *Supervisor) noteDivergence(ref sched.CoreRef, detail string, res *TaskResult) {
	s.div[ref]++
	res.Stats.Divergences++
	s.counter("taskrun_divergences_total").Inc()
	if s.div[ref] < s.cfg.DivergenceThreshold {
		return
	}
	sig := detect.Signal{
		Machine: ref.Machine,
		Core:    ref.Core,
		Kind:    detect.SigAppError,
		Detail:  fmt.Sprintf("taskrun: %s (%d divergences on %s)", detail, s.div[ref], ref),
	}
	if s.cfg.Now != nil {
		sig.Time = s.cfg.Now()
	}
	if s.cfg.Sink == nil {
		res.Stats.SignalsDropped++
		s.counter("taskrun_signals_dropped_total").Inc()
		return
	}
	if err := s.cfg.Sink(sig); err != nil {
		res.Stats.SignalsDropped++
		s.counter("taskrun_signals_dropped_total").Inc()
		return
	}
	res.Stats.SignalsSent++
	s.counter("taskrun_signals_total").Inc()
}

// backoff sleeps 2^retry × RetryBackoff capped at MaxBackoff, through the
// test-seam sleeper. Zero RetryBackoff disables sleeping entirely.
func (s *Supervisor) backoff(retry int) {
	if d := backoff.Delay(s.cfg.RetryBackoff, s.cfg.MaxBackoff, retry); d > 0 {
		s.cfg.sleep(d)
	}
}

// observeLatency records the granule-latency histograms.
func (s *Supervisor) observeLatency(g *Granule, ops uint64, wall time.Duration) {
	if s.cfg.Metrics == nil {
		return
	}
	s.cfg.Metrics.Histogram("taskrun_granule_seconds").Observe(wall.Seconds())
	s.cfg.Metrics.HistogramBuckets("taskrun_granule_ops",
		[]float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7}).Observe(float64(ops))
}

// isReplayDivergence reports whether err is a control-flow divergence
// surfaced by the replay layer.
func isReplayDivergence(err error) bool {
	return errors.Is(err, replay.ErrTapeExhausted) || errors.Is(err, replay.ErrKindMismatch)
}

// unionUnits collects the distinct execution units across granules, in
// first-use order, for restricted-core admission of the whole task.
func unionUnits(gs []Granule) []fault.Unit {
	var out []fault.Unit
	seen := map[fault.Unit]bool{}
	for i := range gs {
		for _, u := range gs[i].Units {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// CorpusGranule adapts a self-checking corpus workload into a granule.
// The workload's only nondeterministic input — its RNG stream — crosses
// the replay boundary as a single recorded seed, so a retry on another
// core feeds the byte-identical input sequence. The workload's own golden
// self-check is the granule's verification; its verdict maps onto the
// supervisor's failure classes.
func CorpusGranule(w corpus.Workload) Granule {
	return Granule{
		Name:  w.Name(),
		Units: w.Units(),
		Work: func(e *engine.Engine, in replay.Source) ([]byte, error) {
			seed, err := in.U64()
			if err != nil {
				return nil, err
			}
			res := w.Run(e, xrand.New(seed))
			switch res.Verdict {
			case corpus.Pass:
				return []byte(fmt.Sprintf("%s:%016x:pass\n", res.Workload, seed)), nil
			case corpus.Trapped:
				return nil, fmt.Errorf("%s trapped: %s", res.Workload, res.Detail)
			default:
				return nil, fmt.Errorf("%s: %s", res.Workload, res.Detail)
			}
		},
	}
}

// NewPool builds a single-machine cluster over the given cores plus the
// provider resolving placements onto them — the standalone harness for
// running a supervisor outside the fleet simulator.
func NewPool(machine string, cores []*fault.Core) (*sched.Cluster, CoreProvider, error) {
	cluster := sched.NewCluster()
	if _, err := cluster.AddMachine(machine, len(cores)); err != nil {
		return nil, nil, err
	}
	pool := append([]*fault.Core(nil), cores...)
	provider := func(ref sched.CoreRef) *fault.Core {
		if ref.Machine != machine || ref.Core < 0 || ref.Core >= len(pool) {
			return nil
		}
		return pool[ref.Core]
	}
	return cluster, provider, nil
}
