package taskrun

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/quarantine"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/screen"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// aluFlip is a deterministic ALU defect: every arithmetic op flips bit 5,
// so any self-checking arithmetic granule fails fast and reproducibly.
var aluFlip = fault.Defect{ID: "alu-flip5", Unit: fault.UnitALU,
	Deterministic: true, Kind: fault.CorruptBitFlip, BitPos: 5}

// healthyPool returns n healthy cores seeded deterministically.
func healthyPool(n int, seed uint64) []*fault.Core {
	cores := make([]*fault.Core, n)
	for i := range cores {
		cores[i] = fault.NewCore(fmt.Sprintf("h%d", i), xrand.New(seed+uint64(i)))
	}
	return cores
}

// corpusGranules is the granule mix used by the end-to-end tests: the
// first exercises the ALU hard (fails on the defective core), the rest
// verify the task keeps going after migration.
func corpusGranules() []Granule {
	return []Granule{
		CorpusGranule(corpus.NewArith(256)),
		CorpusGranule(corpus.NewHash(128)),
		CorpusGranule(corpus.NewCRC(128)),
	}
}

// mulGranule is a cheap deterministic granule for churn tests: output is
// a pure function of the one recorded seed on a healthy core.
func mulGranule(name string) Granule {
	return Granule{
		Name:  name,
		Units: []fault.Unit{fault.UnitALU},
		Work: func(e *engine.Engine, in replay.Source) ([]byte, error) {
			seed, err := in.U64()
			if err != nil {
				return nil, err
			}
			v := seed
			for i := 0; i < 64; i++ {
				v = e.Mul64(v, 0x9e3779b97f4a7c15)
				v = e.Add64(v, uint64(i))
			}
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, v)
			return out, nil
		},
	}
}

// referenceOutput runs the task on an all-healthy pool and returns its
// output — what a correct run must produce byte for byte.
func referenceOutput(t *testing.T, task *Task, inputSeed uint64) []byte {
	t.Helper()
	cluster, provider, err := NewPool("ref", healthyPool(4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(cluster, provider, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := &Task{ID: task.ID, Granules: task.Granules}
	res, err := sup.Run(ref, xrand.New(inputSeed))
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if res.Stats.Retries != 0 {
		t.Fatalf("reference run retried %d times on healthy cores", res.Stats.Retries)
	}
	return res.Output
}

// TestTaskRunSurvivesDefectiveCoreEndToEnd is the acceptance scenario:
// corpus workloads pinned onto a machine's defective core complete with
// byte-correct results after migrating off it; the accumulated
// divergences escalate into accepted suspect signals; quarantine lands
// the core in the ledger (with a confession); and subsequent tasks pinned
// to the same core are rerouted with zero retries.
func TestTaskRunSurvivesDefectiveCoreEndToEnd(t *testing.T) {
	badCore := fault.NewCore("m0/1", xrand.New(11), aluFlip)
	cores := []*fault.Core{
		fault.NewCore("m0/0", xrand.New(10)),
		badCore,
		fault.NewCore("m0/2", xrand.New(12)),
		fault.NewCore("m0/3", xrand.New(13)),
	}
	cluster, provider, err := NewPool("m0", cores)
	if err != nil {
		t.Fatal(err)
	}
	server := report.NewServer(4)
	reg := obs.NewRegistry()
	var clock simtime.Time
	sup, err := NewSupervisor(cluster, provider, Config{
		Sink: func(sig detect.Signal) error {
			server.Ingest(sig)
			return nil
		},
		Metrics: reg,
		Now:     func() simtime.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := sched.CoreRef{Machine: "m0", Core: 1}

	// Eight tasks pinned to the bad core: each one's arith granule fails
	// there once and recovers elsewhere. The concentration test needs >=6
	// same-core reports at coresPerMachine=4 to clear Alpha=0.001.
	const tasks = 8
	for i := 0; i < tasks; i++ {
		clock++
		task := &Task{ID: fmt.Sprintf("t%d", i), Start: &bad, Granules: corpusGranules()}
		res, err := sup.Run(task, xrand.New(uint64(100+i)))
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if res.Path[0] != bad {
			t.Fatalf("task %d started on %v, want pinned %v", i, res.Path[0], bad)
		}
		if res.Stats.Migrations == 0 {
			t.Fatalf("task %d never migrated off the defective core", i)
		}
		want := referenceOutput(t, task, uint64(100+i))
		if !bytes.Equal(res.Output, want) {
			t.Fatalf("task %d output diverges from healthy reference:\n got %q\nwant %q",
				i, res.Output, want)
		}
	}
	st := sup.Stats()
	if st.SignalsSent == 0 {
		t.Fatal("no suspect signals escalated")
	}
	if got := sup.Divergences(bad); got < tasks {
		t.Fatalf("divergences on bad core = %d, want >= %d", got, tasks)
	}

	// The report pipeline nominates the core...
	suspects := server.Suspects()
	if len(suspects) == 0 {
		t.Fatal("no suspects nominated from taskrun signals")
	}
	if suspects[0].Machine != "m0" || suspects[0].Core != 1 {
		t.Fatalf("top suspect = %s/%d, want m0/1", suspects[0].Machine, suspects[0].Core)
	}

	// ...and quarantine accepts it into the ledger after a confession.
	mgr := quarantine.NewManager(cluster, quarantine.Policy{
		Mode: quarantine.CoreRemoval, MinScore: 1,
		RequireConfession: true,
		ConfessionConfig: screen.NewConfig(screen.WithPasses(4),
			screen.WithMaxOps(500_000)),
	})
	srng := xrand.New(5)
	for _, s := range suspects {
		if _, err := mgr.Handle(s, clock, func(cfg screen.Config) detect.Confession {
			return detect.Confess(badCore, cfg, srng)
		}); err != nil {
			t.Fatal(err)
		}
	}
	ledger := mgr.Records()
	if len(ledger) != 1 || ledger[0].Ref != bad || !ledger[0].Confessed {
		t.Fatalf("quarantine ledger = %+v, want one confessed record for %v", ledger, bad)
	}

	// A task pinned to the now-offline core reroutes: zero retries.
	clock++
	res, err := sup.Run(&Task{ID: "after", Start: &bad, Granules: corpusGranules()},
		xrand.New(999))
	if err != nil {
		t.Fatal(err)
	}
	if res.Path[0] == bad {
		t.Fatal("task placed on a quarantined core")
	}
	if res.Stats.Retries != 0 || res.Stats.Restores != 0 {
		t.Fatalf("post-quarantine task retried: %+v", res.Stats)
	}
	if want := referenceOutput(t, &Task{ID: "after", Granules: corpusGranules()}, 999); !bytes.Equal(res.Output, want) {
		t.Fatal("post-quarantine output diverges from reference")
	}

	// The obs instruments saw it all.
	found := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Kind == "counter" {
			key := s.Name
			for _, l := range s.Labels {
				key += "{" + l.Key + "=" + l.Value + "}"
			}
			found[key] = s.Value
		}
	}
	if found["taskrun_granules_total{outcome=committed}"] == 0 {
		t.Fatalf("no committed granules in registry: %v", found)
	}
	if found["taskrun_granules_total{outcome=recovered}"] == 0 {
		t.Fatalf("no recovered granules in registry: %v", found)
	}
	if found["taskrun_migrations_total"] < float64(tasks) {
		t.Fatalf("migrations counter = %v, want >= %d", found["taskrun_migrations_total"], tasks)
	}
	if found["taskrun_signals_total"] != float64(st.SignalsSent) {
		t.Fatalf("signals counter = %v, stats say %d", found["taskrun_signals_total"], st.SignalsSent)
	}
	if found["taskrun_checkpoint_restores_total"] == 0 {
		t.Fatal("restore counter never incremented")
	}
}

// TestTaskRunExactlyOnceUnderChurn quarantines the task's current core
// mid-run (between granule commits) across 20 seeds and asserts every
// granule commits exactly once, in order, with output identical to an
// unchurned run.
func TestTaskRunExactlyOnceUnderChurn(t *testing.T) {
	const granules = 6
	task := func() *Task {
		tk := &Task{ID: "churn"}
		for g := 0; g < granules; g++ {
			tk.Granules = append(tk.Granules, mulGranule(fmt.Sprintf("g%d", g)))
		}
		return tk
	}
	want := referenceOutput(t, task(), 42)

	for seed := uint64(0); seed < 20; seed++ {
		cluster, provider, err := NewPool("m0", healthyPool(8, 500+seed))
		if err != nil {
			t.Fatal(err)
		}
		var commits []string
		churnAt := int(seed % (granules - 1)) // always before the last commit
		sup, err := NewSupervisor(cluster, provider, Config{
			OnCommit: func(taskID string, granule int, ref sched.CoreRef) {
				commits = append(commits, fmt.Sprintf("%s/%d", taskID, granule))
				if granule == churnAt {
					// Quarantine the core under the running task.
					if _, err := cluster.SetCoreState(ref, sched.CoreOffline, nil); err != nil {
						t.Fatal(err)
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sup.Run(task(), xrand.New(42))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(res.Output, want) {
			t.Fatalf("seed %d: churned output diverges from reference", seed)
		}
		if res.Stats.Migrations == 0 {
			t.Fatalf("seed %d: eviction did not surface as a migration", seed)
		}
		if len(commits) != granules {
			t.Fatalf("seed %d: %d commits, want %d: %v", seed, len(commits), granules, commits)
		}
		for g := 0; g < granules; g++ {
			if got := commits[g]; got != fmt.Sprintf("churn/%d", g) {
				t.Fatalf("seed %d: commit %d = %q (lost or double-run granule)", seed, g, got)
			}
		}
	}
}

// TestTaskRunBackoffSeam pins the exponential backoff sequence through
// the test-seam sleeper: with only the defective core available, each
// retry doubles the delay up to the cap, and the granule ultimately fails
// with ErrGranuleFailed.
func TestTaskRunBackoffSeam(t *testing.T) {
	bad := fault.NewCore("solo", xrand.New(3), aluFlip)
	cluster, provider, err := NewPool("m0", []*fault.Core{bad})
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	sup, err := NewSupervisor(cluster, provider, Config{
		MaxRetries:   3,
		RetryBackoff: 10 * time.Millisecond,
		MaxBackoff:   30 * time.Millisecond,
		sleep:        func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sup.Run(&Task{ID: "doomed", Granules: []Granule{CorpusGranule(corpus.NewArith(64))}},
		xrand.New(1))
	if !errors.Is(err, ErrGranuleFailed) {
		t.Fatalf("err = %v, want ErrGranuleFailed", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v (sequence %v)", i, slept[i], want[i], slept)
		}
	}
}

// TestTaskRunBackoffNoOverflow is the regression test for the doubling
// overflow: with a 1ns base and no effective cap, the 64th retry's delay
// used to wrap negative and the retry ran without waiting. Every delay must
// stay positive and non-decreasing, saturating at MaxBackoff.
func TestTaskRunBackoffNoOverflow(t *testing.T) {
	bad := fault.NewCore("solo", xrand.New(3), aluFlip)
	cluster, provider, err := NewPool("m0", []*fault.Core{bad})
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	sup, err := NewSupervisor(cluster, provider, Config{
		MaxRetries:   70,
		RetryBackoff: time.Nanosecond,
		MaxBackoff:   math.MaxInt64,
		sleep:        func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sup.Run(&Task{ID: "doomed", Granules: []Granule{CorpusGranule(corpus.NewArith(64))}},
		xrand.New(1))
	if !errors.Is(err, ErrGranuleFailed) {
		t.Fatalf("err = %v, want ErrGranuleFailed", err)
	}
	if len(slept) != 70 {
		t.Fatalf("slept %d times, want 70", len(slept))
	}
	for i, d := range slept {
		if d <= 0 || (i > 0 && d < slept[i-1]) {
			t.Fatalf("backoff %d = %v: overflowed (sequence %v)", i, d, slept)
		}
	}
	if got := slept[len(slept)-1]; got != math.MaxInt64 {
		t.Fatalf("last backoff = %v, want clamp at MaxBackoff", got)
	}
}

// TestTaskRunTapeDivergenceBlamesRecorder forces a control-flow
// divergence: the defective core's live attempt takes the error path
// after one input; the healthy retry follows the success path and asks
// for a second input the tape doesn't have. That ErrTapeExhausted must be
// attributed to the *recording* core, counted as a tape divergence, and
// recovered by re-recording live.
func TestTaskRunTapeDivergenceBlamesRecorder(t *testing.T) {
	badCore := fault.NewCore("m0/0", xrand.New(7), aluFlip)
	cluster, provider, err := NewPool("m0", []*fault.Core{badCore,
		fault.NewCore("m0/1", xrand.New(8))})
	if err != nil {
		t.Fatal(err)
	}
	var signals []detect.Signal
	sup, err := NewSupervisor(cluster, provider, Config{
		Sink: func(s detect.Signal) error { signals = append(signals, s); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	branchy := Granule{
		Name:  "branchy",
		Units: []fault.Unit{fault.UnitALU},
		Work: func(e *engine.Engine, in replay.Source) ([]byte, error) {
			seed, err := in.U64()
			if err != nil {
				return nil, err
			}
			if e.Add64(seed, 1) != seed+1 { // corrupted: bail after 1 input
				return nil, errors.New("self-check mismatch")
			}
			extra, err := in.U64() // healthy path consumes a 2nd input
			if err != nil {
				return nil, err
			}
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, seed^extra)
			return out, nil
		},
	}
	bad := sched.CoreRef{Machine: "m0", Core: 0}
	res, err := sup.Run(&Task{ID: "t", Start: &bad, Granules: []Granule{branchy}}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TapeDivergences != 1 {
		t.Fatalf("tape divergences = %d, want 1", res.Stats.TapeDivergences)
	}
	if got := sup.Divergences(bad); got != 2 {
		t.Fatalf("divergences on recorder core = %d, want 2 (live failure + tape divergence)", got)
	}
	if len(signals) != 1 {
		t.Fatalf("signals = %d, want 1 (threshold 2 reached on second divergence)", len(signals))
	}
	if signals[0].Machine != "m0" || signals[0].Core != 0 || signals[0].Kind != detect.SigAppError {
		t.Fatalf("signal = %+v, want app-error on m0/0", signals[0])
	}
	if res.Stats.Granules != 1 || len(res.Output) != 8 {
		t.Fatalf("granule did not recover: %+v", res.Stats)
	}
}

// TestTaskRunParanoidCatchesSilentCorruption runs a granule with no
// self-check and no Verify on a silently-corrupting core: without
// paranoid mode the wrong bytes commit; with it, DMR disagreement forces
// a retry that commits the correct bytes.
func TestTaskRunParanoidCatchesSilentCorruption(t *testing.T) {
	// mulGranule has no self-check and no Verify: on the defective core
	// it commits silently corrupted bytes unless paranoid DMR objects.
	silent := mulGranule("silent")
	want := referenceOutput(t, &Task{ID: "x", Granules: []Granule{silent}}, 77)

	build := func(paranoid bool) (*Supervisor, sched.CoreRef) {
		badCore := fault.NewCore("m0/0", xrand.New(21), aluFlip)
		cluster, provider, err := NewPool("m0", []*fault.Core{badCore,
			fault.NewCore("m0/1", xrand.New(22)),
			fault.NewCore("m0/2", xrand.New(23))})
		if err != nil {
			t.Fatal(err)
		}
		sup, err := NewSupervisor(cluster, provider, Config{Paranoid: paranoid})
		if err != nil {
			t.Fatal(err)
		}
		return sup, sched.CoreRef{Machine: "m0", Core: 0}
	}

	// Control: non-paranoid commits silently corrupted bytes.
	sup, bad := build(false)
	res, err := sup.Run(&Task{ID: "x", Start: &bad, Granules: []Granule{silent}}, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(res.Output, want) {
		t.Fatal("control run unexpectedly produced correct bytes; defect not exercised")
	}

	// Paranoid: disagreement is a retryable fault; the replayed retry on
	// a healthy core commits the reference bytes.
	sup, bad = build(true)
	res, err = sup.Run(&Task{ID: "x", Start: &bad, Granules: []Granule{silent}}, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, want) {
		t.Fatalf("paranoid run output %x, want %x", res.Output, want)
	}
	if res.Stats.Restores == 0 || res.Stats.Migrations == 0 {
		t.Fatalf("paranoid disagreement did not restore+migrate: %+v", res.Stats)
	}
}

// TestTaskRunConfigValidation covers constructor and Run input errors.
func TestTaskRunConfigValidation(t *testing.T) {
	cluster, provider, err := NewPool("m0", healthyPool(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSupervisor(nil, provider, Config{}); err == nil {
		t.Fatal("nil cluster accepted")
	}
	if _, err := NewSupervisor(cluster, nil, Config{}); err == nil {
		t.Fatal("nil provider accepted")
	}
	sup, err := NewSupervisor(cluster, provider, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(&Task{}, xrand.New(1)); err == nil {
		t.Fatal("task without ID accepted")
	}
	if _, err := sup.Run(&Task{ID: "t"}, xrand.New(1)); err == nil {
		t.Fatal("task without granules accepted")
	}
	if _, err := sup.Run(&Task{ID: "t", Granules: []Granule{mulGranule("g")}}, nil); err == nil {
		t.Fatal("nil input stream accepted")
	}
	if _, err := sup.Run(&Task{ID: "t", Granules: []Granule{{Name: "noop"}}}, xrand.New(1)); err == nil {
		t.Fatal("granule without work accepted")
	}
}
