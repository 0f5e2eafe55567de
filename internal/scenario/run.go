package scenario

// Compiling and running: a Scenario lowers onto the existing
// fleet.Runner/Config machinery. Events apply serially between Step
// calls (the same serial phases the day loop already uses), so a
// scenario inherits the runner's determinism contract unchanged:
// identical file + seed → bit-identical DayStats, quarantine ledger, and
// metrics snapshot at any parallelism.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/quarantine"
	"repro/internal/remediate"
	"repro/internal/simtime"
)

// Compile lowers the scenario onto a fleet.Config: the fleet section
// already holds the defaults with every knob the file set; the
// sub-sections whose shape differs from the config's map onto it here.
func (s *Scenario) Compile() (fleet.Config, error) {
	fd := &s.Fleet
	cfg := fd.Config
	if s.Seed != nil {
		cfg.Seed = *s.Seed
	}
	if p := fd.Policy; p != nil {
		if p.ModeName != "" {
			mode, ok := policyModes[p.ModeName]
			if !ok {
				return cfg, fmt.Errorf("scenario: unknown policy mode %q", p.ModeName)
			}
			cfg.Policy.Mode = mode
		}
		if p.DeclineRetryDays != nil {
			cfg.Policy.DeclineRetry = simtime.Time(*p.DeclineRetryDays) * simtime.Day
		}
	}
	if fd.Confession != nil {
		cfg.ConfessionConfig = fd.Confession.Config
	}
	for _, sku := range fd.SKUs {
		cfg.SKUs = append(cfg.SKUs, sku.SKU)
	}
	if lc := fd.Lifecycle; lc != nil {
		// WAL and Notify are run-scoped resources (temp file, collector
		// server); Run materializes them after Compile.
		cfg.Lifecycle, cfg.Remediate = lc.LifecycleConfig, lc.RemediateConfig
		for _, p := range lc.Pools {
			cfg.Lifecycle.Pools = append(cfg.Lifecycle.Pools, p.PoolConfig)
		}
	}
	return cfg, nil
}

// Options configures one scenario run. The zero value is usable: default
// parallelism, a private metrics registry, no trace, no observer.
type Options struct {
	// Parallelism is the fleet's worker count (0 = GOMAXPROCS). Results
	// never depend on it.
	Parallelism int
	// Metrics receives the run's telemetry; nil allocates a private
	// registry. Assertions read it, so it must start empty.
	Metrics *obs.Registry
	// Trace, when set, receives the CEE lifecycle stream.
	Trace *obs.Trace
	// Observer, when set, receives every day's stats as produced.
	Observer func(fleet.DayStats)
}

// Result is everything a finished run exposes to assertions and callers.
type Result struct {
	Scenario string
	// Days is the daily telemetry series.
	Days []fleet.DayStats
	// Detection compares the quarantine ledger against ground truth.
	Detection metrics.DetectionReport
	// Records is the final quarantine ledger, in isolation order.
	Records []*quarantine.Record
	// Lifecycle is the final machine-lifecycle ledger, sorted by machine
	// (nil when the control plane is disabled).
	Lifecycle []lifecycle.Record
	// Snapshot is the metrics registry at end of run, sorted; it holds
	// every assertable quantity (see Quantity).
	Snapshot []obs.SeriesSnapshot
	// WALReplay describes the end-of-run replay-equality check (zero when
	// the scenario does not persist a WAL).
	WALReplay lifecycle.RecoverInfo
	// Fleet is the underlying simulator, for further inspection.
	Fleet *fleet.Fleet
}

// runEnv holds the chaos handles a running scenario arms through
// inject_wal_fault / inject_network_fault events, plus the notifier
// plumbing torn down at end of run.
type runEnv struct {
	fs        *chaos.FS
	transport *chaos.Transport
	webhook   *remediate.WebhookNotifier
	async     *remediate.Async
	walPath   string
	collector *httptest.Server
}

// build materializes the run-scoped lifecycle infrastructure (temp WAL
// behind the chaos fs, notifier, webhook collector) onto cfg. The
// returned cleanup is safe to call exactly once, after the run.
func (e *runEnv) build(lc *LifecycleDef, cfg *fleet.Config) (cleanup func(), err error) {
	var undo []func()
	cleanup = func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	if lc == nil || !lc.Enabled {
		return cleanup, nil
	}
	if lc.WAL {
		dir, err := os.MkdirTemp("", "scenario-wal-")
		if err != nil {
			return cleanup, err
		}
		undo = append(undo, func() { os.RemoveAll(dir) })
		e.fs = chaos.NewFS(nil)
		e.walPath = filepath.Join(dir, "lifecycle.wal")
		cfg.Lifecycle.WALPath = e.walPath
		cfg.Lifecycle.FS = e.fs
	}
	switch lc.Notify {
	case "log":
		cfg.Lifecycle.Notifier = remediate.NewLogNotifier(io.Discard)
	case "webhook":
		e.collector = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusOK)
		}))
		undo = append(undo, e.collector.Close)
		e.transport = chaos.NewTransport(nil)
		e.transport.SetDelay(time.Millisecond)
		e.webhook = &remediate.WebhookNotifier{
			URL:     e.collector.URL,
			Client:  &http.Client{Transport: e.transport, Timeout: 5 * time.Second},
			Backoff: time.Millisecond,
		}
		e.async = remediate.NewAsync(e.webhook, 0)
		cfg.Lifecycle.Notifier = e.async
	}
	return cleanup, nil
}

// publish records the run's end-of-run reports in reg as gauges, so
// every assertable quantity is a registry series: the detection report,
// the triage ledger, and — once the notifier has drained — what the chaos
// harness injected and the webhook delivered. Called after the last Step.
func (e *runEnv) publish(reg *obs.Registry, det metrics.DetectionReport, tr fleet.TriageStats) {
	set := func(name string, v int) { reg.Gauge(name).Set(float64(v)) }
	set("detection_defective_cores", det.TotalDefective)
	set("detection_past_onset_cores", det.PastOnset)
	set("detection_true_positives", det.TruePositive)
	set("detection_false_positives", det.FalsePositive)
	reg.Gauge("detection_detected_fraction").Set(det.DetectedFraction())
	reg.Gauge("detection_mean_latency_days").Set(det.MeanLatencyDays())
	set("triage_investigated", tr.Investigated)
	set("triage_confirmed", tr.Confirmed)
	set("triage_false_accusations", tr.FalseAccusations)
	set("triage_real_not_reproduced", tr.RealNotReproduced)
	if e.async != nil {
		e.async.Close()
		set("notify_dropped", e.async.Dropped())
	}
	if e.webhook != nil {
		set("notify_delivered", e.webhook.Delivered())
		set("notify_failed", e.webhook.Failed())
	}
	if e.fs != nil {
		set("chaos_wal_faults", e.fs.Injected())
	}
	if e.transport != nil {
		for k, n := range e.transport.Fired() {
			reg.Gauge("chaos_net_faults", obs.L("fault", k.String())).Set(float64(n))
		}
	}
}

// checkWALReplay reopens the run's WAL on the real filesystem and
// requires the replayed ledger and deferred-drain queue to equal the live
// ones — the "replay equals acked prefix" invariant, checked implicitly
// on every wal: true scenario even when faults tore the on-disk tail.
func (e *runEnv) checkWALReplay(f *fleet.Fleet) (lifecycle.RecoverInfo, error) {
	if e.fs == nil {
		return lifecycle.RecoverInfo{}, nil
	}
	live := f.Lifecycle()
	m, info, err := lifecycle.Open(e.walPath, lifecycle.Options{})
	if err != nil {
		return info, fmt.Errorf("wal replay: %v", err)
	}
	defer m.Close()
	if replayed := m.List(); !reflect.DeepEqual(replayed, live.List()) {
		return info, fmt.Errorf("wal replay mismatch: %d replayed ledger records vs %d live (durable prefix diverged from acked ledger)",
			len(replayed), len(live.List()))
	}
	if replayed := m.DeferredDrains(); !reflect.DeepEqual(replayed, live.DeferredDrains()) {
		return info, fmt.Errorf("wal replay mismatch: %d replayed deferred drains vs %d live",
			len(replayed), len(live.DeferredDrains()))
	}
	return info, nil
}

// Run compiles and executes the scenario. Assertions are NOT evaluated
// here — call Check on the result — so callers can inspect a failing
// run's state.
func (s *Scenario) Run(opts Options) (*Result, error) {
	cfg, err := s.Compile()
	if err != nil {
		return nil, err
	}
	env := &runEnv{}
	cleanup, err := env.build(s.Fleet.Lifecycle, &cfg)
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ropts := []fleet.RunnerOption{fleet.WithMetrics(reg)}
	if opts.Parallelism > 0 {
		ropts = append(ropts, fleet.WithParallelism(opts.Parallelism))
	}
	if opts.Trace != nil {
		ropts = append(ropts, fleet.WithTrace(opts.Trace))
	}
	if opts.Observer != nil {
		ropts = append(ropts, fleet.WithObserver(opts.Observer))
	}
	r, err := fleet.NewRunner(cfg, ropts...)
	if err != nil {
		return nil, err
	}
	f := r.Fleet()
	evs := s.sortedEvents()
	res := &Result{Scenario: s.Name}
	next := 0
	for day := 0; day < s.Days; day++ {
		for next < len(evs) && evs[next].Day == day {
			ev := evs[next]
			next++
			if err := applyEvent(f, ev, env); err != nil {
				return nil, fmt.Errorf("%s:%d: %s on day %d: %v", s.File, ev.Line, ev.Kind, day, err)
			}
		}
		res.Days = append(res.Days, r.Step())
	}
	res.Detection = metrics.Detection(f, s.Days)
	env.publish(reg, res.Detection, f.Triage)
	res.Records = f.Manager().Records()
	if lm := f.Lifecycle(); lm != nil {
		res.Lifecycle = lm.List()
	}
	res.Snapshot = reg.Snapshot()
	res.Fleet = f
	info, err := env.checkWALReplay(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", s.File, err)
	}
	res.WALReplay = info
	return res, nil
}

// applyEvent dispatches one timed action onto the fleet's serial hooks.
func applyEvent(f *fleet.Fleet, ev Event, env *runEnv) error {
	switch ev.Kind {
	case EvInjectDefect:
		return applyInject(f, ev.Inject)
	case EvDrainMachine:
		return f.DrainMachine(ev.Machine)
	case EvUndrainMachine:
		return f.UndrainMachine(ev.Machine)
	case EvCordonMachine:
		return f.CordonMachine(ev.Machine)
	case EvReleaseMachine:
		return f.ReleaseMachine(ev.Machine)
	case EvSetOperatingPoint:
		pt := f.OperatingPoint()
		if ev.Point.FreqGHz != nil {
			pt.FreqGHz = *ev.Point.FreqGHz
		}
		if ev.Point.VoltageV != nil {
			pt.VoltageV = *ev.Point.VoltageV
		}
		if ev.Point.TempC != nil {
			pt.TempC = *ev.Point.TempC
		}
		f.SetOperatingPoint(pt)
		return nil
	case EvStartKVLoad:
		return f.StartKVLoad(ev.KV.KVDBConfig)
	case EvStopKVLoad:
		f.StopKVLoad()
		return nil
	case EvStartTaskRun:
		return f.StartTaskRun(ev.TaskRun.TaskRunConfig)
	case EvStopTaskRun:
		f.StopTaskRun()
		return nil
	case EvInjectWALFault:
		if env.fs == nil {
			return fmt.Errorf("no lifecycle WAL to fault (fleet.lifecycle.wal: true required)")
		}
		switch ev.WALFault.Kind {
		case "fail_write":
			env.fs.FailWrites(ev.WALFault.Count)
		case "torn_write":
			env.fs.TornWrites(ev.WALFault.Count)
		case "fail_sync":
			env.fs.FailSyncs(ev.WALFault.Count)
		case "fail_truncate":
			env.fs.FailTruncates(ev.WALFault.Count)
		case "enospc":
			env.fs.SetENOSPC(true)
		case "enospc_clear":
			env.fs.SetENOSPC(false)
		default:
			return fmt.Errorf("unknown WAL fault kind %q", ev.WALFault.Kind)
		}
		return nil
	case EvInjectNetFault:
		if env.transport == nil {
			return fmt.Errorf("no webhook transport to fault (fleet.lifecycle.notify: webhook required)")
		}
		k, err := chaos.NetFaultByName(ev.NetFault.Kind)
		if err != nil {
			return err
		}
		env.transport.Inject(k, ev.NetFault.Count)
		return nil
	}
	return fmt.Errorf("unknown event kind %q", ev.Kind)
}

func applyInject(f *fleet.Fleet, in *InjectDef) error {
	if in.Class != "" {
		return f.InjectDefectClass(in.Machine, in.Core, in.Class)
	}
	unit, err := fault.UnitByName(in.Unit)
	if err != nil {
		return err
	}
	kind, err := fault.KindByName(in.Kind)
	if err != nil {
		return err
	}
	d := fault.Defect{
		Unit:            unit,
		Kind:            kind,
		BaseRate:        in.BaseRate,
		Deterministic:   in.Deterministic,
		Mask:            in.Mask,
		Delta:           in.Delta,
		PatternMask:     in.PatternMask,
		PatternVal:      in.PatternVal,
		Onset:           simtime.Time(in.OnsetDays) * simtime.Day,
		EscalatePerYear: in.EscalatePerYear,
		Sens: fault.Sensitivity{
			Freq: in.FreqSens,
			Volt: in.VoltSens,
			Temp: in.TempSens,
		},
	}
	if in.BitPos != nil {
		d.BitPos = uint(*in.BitPos)
	}
	if in.StuckVal != nil {
		d.StuckVal = uint(*in.StuckVal)
	}
	return f.InjectDefect(in.Machine, in.Core, d)
}
