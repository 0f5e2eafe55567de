package lifecycle

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// poolManager builds a memory-only manager with one pool of n healthy
// machines named m0..m(n-1).
func poolManager(t *testing.T, cfg PoolConfig, n int) (*Manager, []string) {
	t.Helper()
	m := NewManager(Options{})
	m.DefinePool(cfg)
	machines := make([]string, n)
	for i := range machines {
		machines[i] = string(rune('a'+i)) + "-machine"
		if err := m.AssignPool(machines[i], cfg.Name); err != nil {
			t.Fatalf("AssignPool(%s): %v", machines[i], err)
		}
	}
	return m, machines
}

func TestPoolFloorMath(t *testing.T) {
	cases := []struct {
		cfg     PoolConfig
		members int
		want    int
	}{
		{PoolConfig{Name: "p"}, 10, 0},
		{PoolConfig{Name: "p", MinHealthy: 0.5}, 10, 5},
		{PoolConfig{Name: "p", MinHealthy: 0.75}, 10, 8}, // ceil
		{PoolConfig{Name: "p", MinHealthyCount: 3}, 10, 3},
		// The effective floor is the max of the two.
		{PoolConfig{Name: "p", MinHealthy: 0.5, MinHealthyCount: 7}, 10, 7},
		{PoolConfig{Name: "p", MinHealthy: 0.9, MinHealthyCount: 2}, 10, 9},
	}
	for _, c := range cases {
		if got := c.cfg.floor(c.members); got != c.want {
			t.Errorf("floor(%+v, %d) = %d, want %d", c.cfg, c.members, got, c.want)
		}
	}
}

func TestDrainDeferredAtFloor(t *testing.T) {
	m, ms := poolManager(t, PoolConfig{Name: "web", MinHealthyCount: 2}, 3)

	// 3 serving, floor 2: one drain fits.
	if st, err := m.Drain(ms[0], 1, "maintenance", "op"); err != nil || st != Draining {
		t.Fatalf("first drain: state %v err %v", st, err)
	}
	// 2 serving: the next drain must be deferred, ledger untouched.
	st, err := m.Drain(ms[1], 2, "maintenance", "op")
	if !errors.Is(err, ErrDeferred) {
		t.Fatalf("second drain: err %v, want ErrDeferred", err)
	}
	if st != Healthy {
		t.Fatalf("second drain: state %v, want healthy (unchanged)", st)
	}
	q := m.DeferredDrains()
	if len(q) != 1 || q[0].Machine != ms[1] || q[0].Verb != "draining" {
		t.Fatalf("deferred queue = %+v, want one draining intent for %s", q, ms[1])
	}
	if !m.DrainWouldDefer(ms[2]) {
		t.Fatal("DrainWouldDefer should report true at the floor")
	}

	// Capacity returns: the parked drain is admitted automatically.
	if _, err := m.MarkDrained(ms[0], 3, "op"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reintroduce(ms[0], 3, "healthy again", "op"); err != nil {
		t.Fatal(err)
	}
	if q := m.DeferredDrains(); len(q) != 0 {
		t.Fatalf("queue after reintroduce = %+v, want empty", q)
	}
	if r, _ := m.State(ms[1]); r.State != Drained {
		t.Fatalf("admitted machine state = %v, want drained", r.State)
	}
}

func TestDeferredQueueOrdering(t *testing.T) {
	m := NewManager(Options{})
	m.DefinePool(PoolConfig{Name: "db", MinHealthyCount: 100}) // everything defers
	for _, id := range []string{"m1", "m2", "m3", "m4"} {
		if err := m.AssignPool(id, "db"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		id    string
		score float64
	}{{"m1", 2}, {"m2", 9}, {"m3", 9}, {"m4", 5}} {
		if _, err := m.DrainScored(c.id, 1, "cee", "detector", c.score); !errors.Is(err, ErrDeferred) {
			t.Fatalf("DrainScored(%s): err %v, want ErrDeferred", c.id, err)
		}
	}
	var got []string
	for _, d := range m.DeferredDrains() {
		got = append(got, d.Machine)
	}
	// Score descending; arrival order among the two 9s.
	want := []string{"m2", "m3", "m4", "m1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("queue order = %v, want %v", got, want)
	}
}

// TestRedefer pins deferLocked's rule for a machine already queued: the
// same verb again is a no-op that keeps its arrival order and first
// reason; another verb replaces the intent, which queues anew.
func TestRedefer(t *testing.T) {
	for _, c := range []struct {
		name   string
		cordon bool // re-defer m1 as a cordon rather than a drain
		want   []string
	}{
		{"same verb keeps the intent", false,
			[]string{"m1 draining first", "m2 draining first", "m3 draining first"}},
		{"another verb replaces it", true,
			[]string{"m2 draining first", "m3 draining first", "m1 cordoned again"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager(Options{})
			m.DefinePool(PoolConfig{Name: "db", MinHealthyCount: 100}) // everything defers
			for _, id := range []string{"m1", "m2", "m3"} {
				if err := m.AssignPool(id, "db"); err != nil {
					t.Fatal(err)
				}
				if err := m.DeferDrain(id, 1, "first", "op", 1); err != nil {
					t.Fatal(err)
				}
			}
			redefer := m.DeferDrain
			if c.cordon {
				redefer = m.DeferCordon
			}
			if err := redefer("m1", 2, "again", "op", 1); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range m.DeferredDrains() {
				got = append(got, d.Machine+" "+d.Verb+" "+d.Reason)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("queue = %q, want %q", got, c.want)
			}
		})
	}
}

// TestAdmitSweepFillsTheSlack pins that one admission sweep admits every
// parked drain the floor allows, highest score first, not one per sweep.
func TestAdmitSweepFillsTheSlack(t *testing.T) {
	for _, c := range []struct {
		floor         int
		admitted      []string
		stillDeferred int
	}{
		{5, nil, 3},
		{4, []string{"a-machine"}, 2},
		{3, []string{"a-machine", "b-machine"}, 1},
		{0, []string{"a-machine", "b-machine", "c-machine"}, 0},
	} {
		m, ms := poolManager(t, PoolConfig{Name: "web", MinHealthyCount: 5}, 5)
		for i, id := range ms[:3] {
			if _, err := m.DrainScored(id, 1, "cee", "detector", float64(3-i)); !errors.Is(err, ErrDeferred) {
				t.Fatalf("DrainScored(%s): err %v, want ErrDeferred", id, err)
			}
		}
		m.DefinePool(PoolConfig{Name: "web", MinHealthyCount: c.floor})
		// Releasing an already-serving machine returns no capacity, but it
		// runs the admission sweep the lowered floor now allows.
		if _, err := m.Reintroduce(ms[4], 2, "release", "op"); err != nil {
			t.Fatal(err)
		}
		var drained []string
		for _, id := range ms {
			if r, _ := m.State(id); r.State == Drained {
				drained = append(drained, id)
			}
		}
		if !reflect.DeepEqual(drained, c.admitted) || len(m.DeferredDrains()) != c.stillDeferred {
			t.Errorf("floor %d: drained %v with %d still deferred, want %v and %d",
				c.floor, drained, len(m.DeferredDrains()), c.admitted, c.stillDeferred)
		}
	}
}

func TestSupersededDeferred(t *testing.T) {
	m, ms := poolManager(t, PoolConfig{Name: "web", MinHealthyCount: 3}, 3)

	// A deferred intent is superseded by a later direct drain that fits
	// (the floor drops when the pool is redefined).
	if _, err := m.Drain(ms[0], 1, "x", "op"); !errors.Is(err, ErrDeferred) {
		t.Fatalf("drain at floor: err %v, want ErrDeferred", err)
	}
	m.DefinePool(PoolConfig{Name: "web", MinHealthyCount: 1})
	if st, err := m.Drain(ms[0], 2, "x", "op"); err != nil || st != Draining {
		t.Fatalf("drain after floor drop: state %v err %v", st, err)
	}
	if q := m.DeferredDrains(); len(q) != 0 {
		t.Fatalf("queue after superseding drain = %+v, want empty", q)
	}
}

func TestStaleDeferredDropped(t *testing.T) {
	m, ms := poolManager(t, PoolConfig{Name: "web", MinHealthyCount: 2}, 3)
	if _, err := m.Drain(ms[0], 1, "x", "op"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Drain(ms[1], 1, "x", "op"); !errors.Is(err, ErrDeferred) {
		t.Fatal("expected deferral at floor")
	}
	// The queued machine leaves the serving set by the operator's force
	// verb; the intent must be dropped as stale on the next sweep, not
	// admitted against a removed machine.
	if _, err := m.Remove(ms[1], 2, "dead", "op"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reintroduce(ms[0], 3, "repaired", "op"); err != nil {
		t.Fatal(err)
	}
	if q := m.DeferredDrains(); len(q) != 0 {
		t.Fatalf("queue after removal sweep = %+v, want empty", q)
	}
	if r, _ := m.State(ms[1]); r.State != Removed {
		t.Fatalf("machine state = %v, want removed", r.State)
	}
}

func TestCordonDeferredAdmitsAsCordon(t *testing.T) {
	m, ms := poolManager(t, PoolConfig{Name: "web", MinHealthyCount: 3}, 3)
	if _, err := m.CordonScored(ms[0], 1, "cee", "detector", 4); !errors.Is(err, ErrDeferred) {
		t.Fatal("expected cordon deferral at floor")
	}
	m.DefinePool(PoolConfig{Name: "web", MinHealthyCount: 1})
	if _, err := m.Reintroduce(ms[1], 2, "release", "op"); err != nil {
		t.Fatal(err)
	}
	if r, _ := m.State(ms[0]); r.State != Cordoned {
		t.Fatalf("admitted cordon: state %v, want cordoned (not drained)", r.State)
	}
}

func TestPoolStatusSnapshot(t *testing.T) {
	m, ms := poolManager(t, PoolConfig{Name: "web", MinHealthy: 0.75}, 4)
	m.DefinePool(PoolConfig{Name: "empty", MinHealthyCount: 1})
	if _, err := m.Drain(ms[0], 1, "x", "op"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Drain(ms[1], 1, "x", "op"); !errors.Is(err, ErrDeferred) {
		t.Fatal("expected deferral")
	}
	got := m.Pools()
	want := []PoolStatus{
		{Name: "empty", MinHealthyCount: 1, Floor: 1},
		{Name: "web", Machines: 4, Serving: 3, Floor: 3, Deferred: 1, MinHealthy: 0.75},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Pools() = %+v, want %+v", got, want)
	}
	if pool := m.PoolOf(ms[0]); pool != "web" {
		t.Fatalf("PoolOf = %q, want web", pool)
	}
	if pool := m.PoolOf("never-seen"); pool != "" {
		t.Fatalf("PoolOf(unknown) = %q, want empty", pool)
	}
}

func TestSuspectCountsAsServing(t *testing.T) {
	m, ms := poolManager(t, PoolConfig{Name: "web", MinHealthyCount: 2}, 3)
	// A suspect machine still serves, so marking one suspect does not eat
	// into the floor headroom...
	if _, err := m.MarkSuspect(ms[0], 1, "cee"); err != nil {
		t.Fatal(err)
	}
	if m.DrainWouldDefer(ms[1]) {
		t.Fatal("suspect machine should still count as serving")
	}
	// ...but draining it does.
	if _, err := m.Drain(ms[0], 1, "cee", "detector"); err != nil {
		t.Fatal(err)
	}
	if !m.DrainWouldDefer(ms[1]) {
		t.Fatal("pool at floor after one drain")
	}
}

func TestDeferredQueueSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lifecycle.wal")
	m, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.DefinePool(PoolConfig{Name: "web", MinHealthyCount: 2})
	for _, id := range []string{"m1", "m2", "m3"} {
		if err := m.AssignPool(id, "web"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Drain("m1", 1, "maintenance", "op"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DrainScored("m2", 2, "cee", "detector", 7); !errors.Is(err, ErrDeferred) {
		t.Fatalf("expected deferral, got %v", err)
	}
	wantList, wantQ := m.List(), m.DeferredDrains()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re, info, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.TornBytes != 0 {
		t.Fatalf("unexpected torn bytes: %d", info.TornBytes)
	}
	if !reflect.DeepEqual(re.List(), wantList) {
		t.Fatalf("replayed ledger %+v != pre-crash %+v", re.List(), wantList)
	}
	if !reflect.DeepEqual(re.DeferredDrains(), wantQ) {
		t.Fatalf("replayed queue %+v != pre-crash %+v", re.DeferredDrains(), wantQ)
	}
	// Pool definitions are config, not WAL: redefine, then admission
	// resumes where the pre-crash manager would have.
	re.DefinePool(PoolConfig{Name: "web", MinHealthyCount: 1})
	if _, err := re.Reintroduce("m3", 3, "release", "op"); err != nil {
		t.Fatal(err)
	}
	if q := re.DeferredDrains(); len(q) != 0 {
		t.Fatalf("queue after post-replay admission = %+v, want empty", q)
	}
	if r, _ := re.State("m2"); r.State != Drained {
		t.Fatalf("admitted machine state = %v, want drained", r.State)
	}
}

func TestAssignPoolDurableAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lifecycle.wal")
	m, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AssignPool("m1", "web"); err != nil {
		t.Fatal(err)
	}
	seqAfterFirst := m.wal.Seq()
	// Re-assigning the same pool must not burn a WAL record.
	if err := m.AssignPool("m1", "web"); err != nil {
		t.Fatal(err)
	}
	if m.wal.Seq() != seqAfterFirst {
		t.Fatalf("idempotent assign appended a record (seq %d -> %d)", seqAfterFirst, m.wal.Seq())
	}
	if err := m.AssignPool("m1", ""); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if pool := re.PoolOf("m1"); pool != "" {
		t.Fatalf("replayed pool = %q, want cleared", pool)
	}
}

// TestDrainedKeepsDrainReason pins that a drained machine still shows why
// it was drained, whether its drain completed directly or was admitted
// from the deferred queue, and after the ledger is replayed.
func TestDrainedKeepsDrainReason(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lifecycle.wal")
	m, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.DefinePool(PoolConfig{Name: "web", MinHealthyCount: 3})
	for _, id := range []string{"m1", "m2", "m3", "m4"} {
		if err := m.AssignPool(id, "web"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Drain("m1", 1, "maint", "op"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MarkDrained("m1", 1, "op"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DrainScored("m2", 2, "cee", "detector", 5); !errors.Is(err, ErrDeferred) {
		t.Fatalf("drain at floor: err %v, want ErrDeferred", err)
	}
	m.DefinePool(PoolConfig{Name: "web", MinHealthyCount: 2})
	if _, err := m.Reintroduce("m4", 3, "release", "op"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"m1": "maint", "m2": "cee"}
	check := func(m *Manager, when string) {
		t.Helper()
		for id, reason := range want {
			if r, _ := m.State(id); r.State != Drained || r.LastReason != reason {
				t.Errorf("%s: %s is %v with reason %q, want drained with %q", when, id, r.State, r.LastReason, reason)
			}
		}
	}
	check(m, "live")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "replayed")
}
