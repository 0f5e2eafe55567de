package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/quarantine"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// stuckBitReplica's vector (copy) unit deterministically sticks bit 3 of
// every byte at 0, so any payload with bit 3 set is corrupted in storage
// and every read fails its checksum.
func stuckBitReplica(id string, seed uint64) *Replica {
	d := fault.Defect{ID: "stuck3", Unit: fault.UnitVec, Deterministic: true,
		Kind: fault.CorruptStuckBit, BitPos: 3, StuckVal: 0}
	return NewReplica(id, engine.New(fault.NewCore(id, xrand.New(seed), d)))
}

// bit3Payload has bit 3 set in every byte ('x' = 0x78).
func bit3Payload() []byte { return bytes.Repeat([]byte("x"), 64) }

// collectSink buffers emitted signals (its own lock: emit already runs
// under the tolerant store's mutex, but the race detector should not have
// to trust that).
type collectSink struct {
	mu   sync.Mutex
	sigs []detect.Signal
}

func (c *collectSink) sink(s detect.Signal) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sigs = append(c.sigs, s)
	return nil
}

func (c *collectSink) all() []detect.Signal {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]detect.Signal(nil), c.sigs...)
}

// --- Satellite regression tests: the raw DB read paths ---

func TestReadRepairAllCorruptSurfacesCorruption(t *testing.T) {
	// Every replica stores corrupt bytes: total corruption must be a CEE
	// signal (ErrCorrupt), not a missing key.
	db, _ := New(stuckBitReplica("b0", 1), stuckBitReplica("b1", 2), stuckBitReplica("b2", 3))
	db.Put("k", bit3Payload())
	_, err := db.ReadRepair("k")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("total corruption misreported as ErrNotFound: %v", err)
	}
}

func TestReadRepairHealsFromSurvivingGoodReplica(t *testing.T) {
	// 2-of-3 replicas corrupt the row; the lone checksum-valid copy is a
	// majority of the valid reads and must heal the row.
	good := healthyReplica("good", 11)
	db, _ := New(stuckBitReplica("b0", 1), stuckBitReplica("b1", 2), good)
	want := bit3Payload()
	db.Put("k", want)
	v, err := db.ReadRepair("k")
	if err != nil {
		t.Fatalf("ReadRepair: %v", err)
	}
	if !bytes.Equal(v, want) {
		t.Fatalf("healed value = %q, want %q", v, want)
	}
	if db.Stats.CorruptReads != 2 {
		t.Fatalf("CorruptReads = %d, want 2", db.Stats.CorruptReads)
	}
	if db.Stats.Repairs != 2 {
		t.Fatalf("Repairs = %d, want 2", db.Stats.Repairs)
	}
	// The good replica still serves the row cleanly afterwards.
	if v, err := good.get("k"); err != nil || !bytes.Equal(v, want) {
		t.Fatalf("good replica after repair: %q, %v", v, err)
	}
}

func TestGetComparedSingleReplicaCountsCorrupt(t *testing.T) {
	db, _ := New(stuckBitReplica("b0", 1))
	db.Put("k", bit3Payload())
	_, err := db.GetCompared("k")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if db.Stats.CorruptReads != 1 {
		t.Fatalf("CorruptReads = %d, want 1 (single-replica path must count)", db.Stats.CorruptReads)
	}
}

// --- Tolerant serving layer ---

func TestTolerantRetryRecoversAndSignals(t *testing.T) {
	bad := stuckBitReplica("bad", 1).Locate("m0", 2)
	db, _ := New(bad, healthyReplica("g1", 2).Locate("m1", 0), healthyReplica("g2", 3).Locate("m2", 0))
	var cs collectSink
	var now simtime.Time
	tdb := NewTolerant(db, TolerantConfig{
		Sink: cs.sink,
		Now:  func() simtime.Time { now++; return now },
	})
	want := bit3Payload()
	tdb.Put("k", want)
	for i := 0; i < 9; i++ {
		v, err := tdb.Get("k")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("read %d: wrong bytes", i)
		}
	}
	st := tdb.Stats()
	if st.Retries == 0 || st.RecoveredByRetry == 0 {
		t.Fatalf("expected retry recoveries, got %+v", st)
	}
	sigs := cs.all()
	if len(sigs) == 0 {
		t.Fatal("no signals emitted for corrupt reads")
	}
	for _, s := range sigs {
		if s.Machine != "m0" || s.Core != 2 || s.Kind != detect.SigAppError {
			t.Fatalf("signal misattributed: %+v", s)
		}
		if s.Time == 0 {
			t.Fatalf("signal missing timestamp: %+v", s)
		}
	}
	if st.SignalsSent != len(sigs) {
		t.Fatalf("SignalsSent = %d, sink saw %d", st.SignalsSent, len(sigs))
	}
}

func TestTolerantDegradedServeMarksRowSuspect(t *testing.T) {
	// One corrupt replica plus a 1-1 split of checksum-valid divergent
	// values: repair finds no majority, so the read degrades to the
	// plurality value instead of erroring, and the row is marked suspect.
	bad := stuckBitReplica("bad", 1)
	r1 := healthyReplica("r1", 2)
	r2 := healthyReplica("r2", 3)
	db, _ := New(bad, r1, r2)
	valA := bytes.Repeat([]byte("A"), 32)
	valB := bytes.Repeat([]byte("B"), 32)
	bad.apply("k", newWrite(bit3Payload()))
	r1.apply("k", newWrite(valA))
	r2.apply("k", newWrite(valB))
	var cs collectSink
	tdb := NewTolerant(db, TolerantConfig{MaxRetries: -1, Sink: cs.sink})
	v, err := tdb.Get("k")
	if err != nil {
		t.Fatalf("degraded serve errored: %v", err)
	}
	if !bytes.Equal(v, valA) {
		t.Fatalf("plurality value = %q, want first-seen %q", v, valA)
	}
	st := tdb.Stats()
	if st.DegradedServes != 1 {
		t.Fatalf("DegradedServes = %d, want 1", st.DegradedServes)
	}
	if !tdb.RowSuspect("k") {
		t.Fatal("row not marked suspect after degraded serve")
	}
	if rows := tdb.SuspectRows(); len(rows) != 1 || rows[0] != "k" {
		t.Fatalf("SuspectRows = %v", rows)
	}
	// A fresh full write clears the suspicion.
	tdb.Put("k", valA)
	if tdb.RowSuspect("k") {
		t.Fatal("suspect mark survived a clean write")
	}
}

func TestTolerantDualReadCatchesSilentDivergence(t *testing.T) {
	// Two checksum-valid replicas holding different bytes: a single read
	// would serve either silently; dual-read compares and escalates.
	r0 := healthyReplica("r0", 2)
	r1 := healthyReplica("r1", 3)
	r2 := healthyReplica("r2", 4)
	db, _ := New(r0, r1, r2)
	valA := bytes.Repeat([]byte("A"), 32)
	valB := bytes.Repeat([]byte("B"), 32)
	r0.apply("k", newWrite(valB))
	r1.apply("k", newWrite(valA))
	r2.apply("k", newWrite(valA))
	var cs collectSink
	tdb := NewTolerant(db, TolerantConfig{DualRead: true, Sink: cs.sink})
	v, err := tdb.Get("k")
	if err != nil {
		t.Fatalf("dual read: %v", err)
	}
	if !bytes.Equal(v, valA) {
		t.Fatalf("value = %q, want majority %q", v, valA)
	}
	st := tdb.Stats()
	if st.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1 (divergence must escalate to repair)", st.Repairs)
	}
	// The outvoted replica is blamed.
	sigs := cs.all()
	if len(sigs) == 0 {
		t.Fatal("no signal for the outvoted replica")
	}
	// The row is healed: both dual reads now agree.
	if v, err := tdb.Get("k"); err != nil || !bytes.Equal(v, valA) {
		t.Fatalf("post-repair read: %q, %v", v, err)
	}
}

func TestTolerantHealthAvoidsSuspectReplica(t *testing.T) {
	bad := stuckBitReplica("bad", 1).Locate("m0", 2)
	db, _ := New(bad, healthyReplica("g1", 2).Locate("m1", 0), healthyReplica("g2", 3).Locate("m2", 0))
	var cs collectSink
	tdb := NewTolerant(db, TolerantConfig{
		Sink: cs.sink,
		Health: func(machine string, core int) bool {
			return machine == "m0" && core == 2
		},
	})
	tdb.Put("k", bit3Payload())
	for i := 0; i < 12; i++ {
		if _, err := tdb.Get("k"); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	st := tdb.Stats()
	if st.Retries != 0 || st.SignalsSent != 0 {
		t.Fatalf("avoided replica was still served: %+v", st)
	}
}

func TestTolerantBackoffBoundedAndSeamed(t *testing.T) {
	db, _ := New(stuckBitReplica("b0", 1), stuckBitReplica("b1", 2), stuckBitReplica("b2", 3))
	var slept []time.Duration
	tdb := NewTolerant(db, TolerantConfig{
		MaxRetries:   2,
		RetryBackoff: 10 * time.Millisecond,
		MaxBackoff:   15 * time.Millisecond,
		sleep:        func(d time.Duration) { slept = append(slept, d) },
	})
	tdb.Put("k", bit3Payload())
	_, err := tdb.Get("k")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("all-corrupt read: err = %v, want ErrCorrupt", err)
	}
	want := []time.Duration{10 * time.Millisecond, 15 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("backoffs = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v (doubling, capped)", i, slept[i], want[i])
		}
	}
	if st := tdb.Stats(); st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
}

func TestTolerantQueryByValueOutvotesMinority(t *testing.T) {
	r0 := healthyReplica("r0", 2).Locate("m0", 1)
	r1 := healthyReplica("r1", 3).Locate("m1", 0)
	r2 := healthyReplica("r2", 4).Locate("m2", 0)
	db, _ := New(r0, r1, r2)
	valA := bytes.Repeat([]byte("A"), 16)
	valB := bytes.Repeat([]byte("B"), 16)
	// r0's index diverges: it believes the row holds valA.
	r0.apply("k", newWrite(valA))
	r1.apply("k", newWrite(valB))
	r2.apply("k", newWrite(valB))
	var cs collectSink
	tdb := NewTolerant(db, TolerantConfig{Sink: cs.sink})
	keys := tdb.QueryByValue(valB)
	if len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("majority index answer = %v, want [k]", keys)
	}
	if st := tdb.Stats(); st.IndexDivergence != 1 {
		t.Fatalf("IndexDivergence = %d, want 1", st.IndexDivergence)
	}
	sigs := cs.all()
	if len(sigs) != 1 || sigs[0].Machine != "m0" || sigs[0].Core != 1 {
		t.Fatalf("minority replica not blamed: %+v", sigs)
	}
}

func TestTolerantConcurrentUse(t *testing.T) {
	// The tolerant layer is the store's concurrency boundary: hammer it
	// from many goroutines under -race.
	bad := stuckBitReplica("bad", 1).Locate("m0", 2)
	db, _ := New(bad, healthyReplica("g1", 2).Locate("m1", 0), healthyReplica("g2", 3).Locate("m2", 0))
	var cs collectSink
	tdb := NewTolerant(db, TolerantConfig{Sink: cs.sink, Metrics: obs.NewRegistry()})
	val := bit3Payload()
	for i := 0; i < 4; i++ {
		tdb.Put(fmt.Sprintf("k%d", i), val)
	}
	const workers, opsEach = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("k%d", (w+i)%4)
				switch i % 5 {
				case 0:
					tdb.Put(key, val)
				case 1:
					tdb.QueryByValue(val)
				case 2:
					tdb.Stats()
					tdb.SuspectRows()
				default:
					if _, err := tdb.Get(key); err != nil {
						t.Errorf("get %s: %v", key, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := tdb.Stats(); st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("no work recorded: %+v", st)
	}
}

// TestTolerantEndToEndLoop is the acceptance scenario: a mercurial replica
// core corrupts reads → the store emits signals over real HTTP via
// report.Client → the tracker's concentration test nominates the core →
// quarantine removes it → health-aware selection reroutes every later read
// → retries and signals stop, with the serving counters visible in the
// metrics registry. Fully seeded and deterministic.
func TestTolerantEndToEndLoop(t *testing.T) {
	cluster := sched.NewCluster()
	for _, m := range []string{"m0", "m1", "m2"} {
		if _, err := cluster.AddMachine(m, 4); err != nil {
			t.Fatal(err)
		}
	}
	srv := report.NewServer(4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mgr := quarantine.NewManager(cluster, quarantine.Policy{
		Mode: quarantine.CoreRemoval, MinScore: 1,
	})

	bad := stuckBitReplica("m0/c2", 1).Locate("m0", 2)
	db, _ := New(bad, healthyReplica("g1", 2).Locate("m1", 0), healthyReplica("g2", 3).Locate("m2", 0))
	reg := obs.NewRegistry()
	var now simtime.Time
	tdb := NewTolerant(db, TolerantConfig{
		BatchSink: ClientBatchSink(&report.Client{BaseURL: ts.URL}),
		Health: func(machine string, core int) bool {
			return mgr.Isolated(sched.CoreRef{Machine: machine, Core: core})
		},
		Metrics: reg,
		Now:     func() simtime.Time { return now },
	})
	want := bit3Payload()
	for i := 0; i < 4; i++ {
		tdb.Put(fmt.Sprintf("k%d", i), want)
	}

	// Phase 1: serve until the concentration test nominates the core.
	// Every read must succeed from the client's point of view throughout.
	nominated := false
	for i := 0; i < 200 && !nominated; i++ {
		now += simtime.Time(1)
		if v, err := tdb.Get(fmt.Sprintf("k%d", i%4)); err != nil || !bytes.Equal(v, want) {
			t.Fatalf("read %d: %q, %v", i, v, err)
		}
		for _, s := range srv.Suspects() {
			if s.Machine == "m0" && s.Core == 2 {
				nominated = true
			}
		}
	}
	if !nominated {
		t.Fatal("tracker never nominated the mercurial core")
	}
	st1 := tdb.Stats()
	if st1.Retries == 0 || st1.SignalsSent == 0 {
		t.Fatalf("no mitigation activity before quarantine: %+v", st1)
	}
	if st1.Errors != 0 {
		t.Fatalf("client saw %d errors before quarantine", st1.Errors)
	}

	// Phase 2: quarantine the nomination.
	quarantined := false
	for _, s := range srv.Suspects() {
		rec, err := mgr.Handle(s, now, nil)
		if err != nil {
			t.Fatalf("quarantine: %v", err)
		}
		if rec != nil && rec.Ref == (sched.CoreRef{Machine: "m0", Core: 2}) {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("quarantine declined the mercurial core")
	}

	// Phase 3: reads now avoid the replica — the client-visible error and
	// retry rates drop to zero.
	for i := 0; i < 30; i++ {
		now += simtime.Time(1)
		if v, err := tdb.Get(fmt.Sprintf("k%d", i%4)); err != nil || !bytes.Equal(v, want) {
			t.Fatalf("post-quarantine read %d: %q, %v", i, v, err)
		}
	}
	st2 := tdb.Stats()
	if st2.Retries != st1.Retries {
		t.Fatalf("retries after quarantine: %d -> %d", st1.Retries, st2.Retries)
	}
	if st2.SignalsSent != st1.SignalsSent {
		t.Fatalf("signals after quarantine: %d -> %d", st1.SignalsSent, st2.SignalsSent)
	}
	if st2.Errors != 0 {
		t.Fatalf("client errors = %d, want 0", st2.Errors)
	}

	// The serving counters are visible in the registry snapshot.
	found := map[string]float64{}
	for _, s := range reg.Snapshot() {
		found[s.Name] += s.Value
	}
	for _, name := range []string{
		"kvdb_reads_total", "kvdb_read_retries_total",
		"kvdb_reads_recovered_by_retry_total", "kvdb_signals_total",
	} {
		if found[name] <= 0 {
			t.Fatalf("metric %s missing from snapshot (have %v)", name, found)
		}
	}
}
