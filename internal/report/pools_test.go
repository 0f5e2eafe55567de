package report

// Tests for the pool admin surface, the readiness endpoint, and the
// clamped retry backoff — the robustness additions riding on the pools
// and chaos work.

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/lifecycle"
)

// newPoolService builds a server whose lifecycle manager has one "web"
// pool of three machines with a serving floor of two, WAL-backed on the
// chaos filesystem so tests can fault the daemon's own disk.
func newPoolService(t *testing.T) (*Server, *Client, *chaos.FS) {
	t.Helper()
	fs := chaos.NewFS(nil)
	mgr, _, err := lifecycle.Open(filepath.Join(t.TempDir(), "pools.wal"),
		lifecycle.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	mgr.DefinePool(lifecycle.PoolConfig{Name: "web", MinHealthyCount: 2})
	for _, id := range []string{"m1", "m2", "m3"} {
		if err := mgr.AssignPool(id, "web"); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(16)
	srv.SetLifecycle(mgr)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &Client{BaseURL: ts.URL}, fs
}

func TestPoolsEndpoint(t *testing.T) {
	_, c, _ := newPoolService(t)
	ctx := context.Background()

	if _, err := c.MachineAction(ctx, "m1", "drain", ActionRequest{Reason: "maintenance"}); err != nil {
		t.Fatal(err)
	}
	// The pool is now at its floor: the next drain comes back 202-deferred.
	rec, err := c.MachineAction(ctx, "m2", "drain", ActionRequest{Reason: "maintenance", Score: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Deferred {
		t.Fatalf("drain at floor: %+v, want Deferred=true", rec)
	}
	if rec.State != "healthy" {
		t.Fatalf("deferred machine state = %q, want healthy (unchanged)", rec.State)
	}

	pools, err := c.Pools(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools.Pools) != 1 {
		t.Fatalf("pools = %+v, want one", pools.Pools)
	}
	p := pools.Pools[0]
	if p.Name != "web" || p.Machines != 3 || p.Serving != 2 || p.Floor != 2 || p.Deferred != 1 {
		t.Fatalf("pool status = %+v", p)
	}
	if len(pools.Deferred) != 1 || pools.Deferred[0].Machine != "m2" || pools.Deferred[0].Score != 4 {
		t.Fatalf("deferred queue = %+v", pools.Deferred)
	}

	// Capacity returns: the deferred drain admits itself and the queue
	// empties.
	if _, err := c.MachineAction(ctx, "m1", "release", ActionRequest{}); err != nil {
		t.Fatal(err)
	}
	pools, err = c.Pools(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools.Deferred) != 0 {
		t.Fatalf("queue after release = %+v, want empty", pools.Deferred)
	}
	m2, err := c.Machine(ctx, "m2")
	if err != nil || m2.State != "drained" {
		t.Fatalf("admitted machine = %+v %v, want drained", m2, err)
	}
}

func TestMachinesPoolFilter(t *testing.T) {
	srv, c, _ := newPoolService(t)
	ctx := context.Background()
	if err := srv.life.AssignPool("m9", "db"); err != nil {
		t.Fatal(err)
	}

	web, err := c.Machines(ctx, "", "web")
	if err != nil || len(web) != 3 {
		t.Fatalf("pool filter: %+v %v, want 3 web machines", web, err)
	}
	if _, err := c.MachineAction(ctx, "m1", "cordon", ActionRequest{}); err != nil {
		t.Fatal(err)
	}
	cordonedWeb, err := c.Machines(ctx, "cordoned", "web")
	if err != nil || len(cordonedWeb) != 1 || cordonedWeb[0].Machine != "m1" {
		t.Fatalf("combined filter: %+v %v", cordonedWeb, err)
	}
	none, err := c.Machines(ctx, "cordoned", "db")
	if err != nil || len(none) != 0 {
		t.Fatalf("disjoint filter: %+v %v, want empty", none, err)
	}
}

func TestAssignVerb(t *testing.T) {
	_, c, _ := newPoolService(t)
	ctx := context.Background()

	rec, err := c.MachineAction(ctx, "m7", "assign", ActionRequest{Pool: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pool != "db" {
		t.Fatalf("assigned pool = %q, want db", rec.Pool)
	}
	// Missing pool is a client error.
	if _, err := c.MachineAction(ctx, "m7", "assign", ActionRequest{}); err == nil {
		t.Fatal("assign without a pool must 400")
	} else if !strings.Contains(err.Error(), "400") {
		t.Fatalf("want 400 in error, got %v", err)
	}
}

// TestRemoveForgetsTrackerState pins that a successful remove drops the
// machine's tracker state (a removed machine never reports again, so
// keeping it would grow the daemon without bound) and that a refused one
// leaves the nomination in place.
func TestRemoveForgetsTrackerState(t *testing.T) {
	_, c, fs := newPoolService(t)
	ctx := context.Background()
	for _, id := range []string{"m", "n"} {
		for i := 0; i < 6; i++ {
			if err := c.Report(ctx, Report{Machine: id, Core: 3, Kind: "app-error", TimeSec: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	suspected := func(id string) bool {
		t.Helper()
		sus, err := c.SuspectsContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sus {
			if s.Machine == id {
				return true
			}
		}
		return false
	}
	if !suspected("m") || !suspected("n") {
		t.Fatal("setup: m and n must both be nominated")
	}

	if _, err := c.MachineAction(ctx, "m", "remove", ActionRequest{Reason: "retired"}); err != nil {
		t.Fatal(err)
	}
	if suspected("m") {
		t.Fatal("removed machine still nominated")
	}

	// A remove the WAL cannot persist is refused and forgets nothing.
	fs.FailWrites(1)
	if _, err := c.MachineAction(ctx, "n", "remove", ActionRequest{}); err == nil {
		t.Fatal("remove over a faulted WAL must fail")
	}
	if !suspected("n") {
		t.Fatal("refused remove dropped the nomination")
	}
}

func TestReadyzHealthy(t *testing.T) {
	_, c, _ := newPoolService(t)
	out, ready, err := c.Readyz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ready || out.Status != "ok" {
		t.Fatalf("readyz = %+v ready=%v, want ok", out, ready)
	}
	if !out.WAL.Enabled || !out.WAL.Healthy {
		t.Fatalf("WAL section = %+v, want enabled+healthy", out.WAL)
	}
}

func TestReadyzDegradedOnWALFault(t *testing.T) {
	_, c, fs := newPoolService(t)
	ctx := context.Background()

	// Fault the daemon's own disk; the next verb latches the WAL error.
	fs.FailWrites(1)
	if _, err := c.MachineAction(ctx, "m1", "cordon", ActionRequest{}); err == nil {
		t.Fatal("verb over a faulted WAL must fail")
	}
	out, ready, err := c.Readyz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ready || out.Status != "degraded" {
		t.Fatalf("readyz = %+v ready=%v, want degraded 503", out, ready)
	}
	if out.WAL.Healthy || out.WAL.Error == "" {
		t.Fatalf("WAL section = %+v, want unhealthy with detail", out.WAL)
	}
	// Liveness is unaffected: the process is fine, it just can't persist.
	resp, err := c.client().Get(c.BaseURL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz during WAL fault = %d, want 200", resp.StatusCode)
	}

	// The next successful append clears the latch and readiness returns.
	if _, err := c.MachineAction(ctx, "m1", "cordon", ActionRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, ready, err := c.Readyz(ctx); err != nil || !ready {
		t.Fatalf("readyz after recovery: ready=%v err=%v, want ready", ready, err)
	}
}

func TestReadyzDegradedOnSaturatedQueue(t *testing.T) {
	const capacity = 4
	srv, release := blockingSignalServer(capacity)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		// Unblock the sink before flushing the queue, then close HTTP.
		close(release)
		srv.Close()
		ts.Close()
	}()
	c := &Client{BaseURL: ts.URL}

	// One signal occupies the drainer (parked in the blocked sink); once
	// the queue is empty again, a capacity-sized batch pins it full.
	if _, err := c.ReportBatch(makeBatch("probe", 1, "m1", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.QueueDepth() == 0 })
	ack, err := c.ReportBatch(makeBatch("probe", 2, "m2", capacity))
	if err != nil || ack.Status != "deferred" {
		t.Fatalf("fill batch: ack %+v err %v", ack, err)
	}

	out, ready, err := c.Readyz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Fatalf("readyz with saturated queue = %+v, want 503", out)
	}
	if !out.Queue.Enabled || !out.Queue.Saturated || out.Queue.Capacity != capacity {
		t.Fatalf("queue section = %+v", out.Queue)
	}
}

// TestBackoffDelayNoOverflow pins the client's retry schedule at its
// defaults (50ms doubling, clamped at 30s) and is the regression test for
// the retry-delay shift overflow: `backoff << attempt` went negative past
// 63 bits, turning the wait into zero and the retry loop into a hot spin.
func TestBackoffDelayNoOverflow(t *testing.T) {
	base, max := defaultRetryBackoff, maxRetryBackoff
	if d := backoff.Delay(base, max, 0); d != 50*time.Millisecond {
		t.Fatalf("retry 0: %v, want 50ms", d)
	}
	if d := backoff.Delay(base, max, 3); d != 400*time.Millisecond {
		t.Fatalf("retry 3: %v, want 400ms", d)
	}
	for _, retry := range []int{10, 62, 63, 64, 200, 1 << 30} {
		d := backoff.Delay(base, max, retry)
		if d != max {
			t.Fatalf("retry %d: %v, want clamp at %v", retry, d, max)
		}
		if d <= 0 {
			t.Fatalf("retry %d: %v — negative delay means the shift overflowed", retry, d)
		}
	}
}
