// fleetsim chaos: the control-plane chaos smoke. Four deterministic
// storms fault-inject the control plane's own infrastructure — the disk
// under the lifecycle WAL, the pool capacity gate, the admin API's
// network, and the webhook notifier's network — and assert the chaos
// invariants from DESIGN.md §14:
//
//  1. nothing acknowledged was lost: an operation that returned an error
//     left the ledger exactly as it was;
//  2. no pool ever dips below its capacity floor;
//  3. every deferred drain is eventually admitted;
//  4. a crash-recovered ledger replays to exactly the acknowledged prefix.
//
// All fault arming is counter-based (never probabilistic), so every run
// is bit-identical and a CI failure reproduces locally.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/lifecycle"
	"repro/internal/remediate"
	"repro/internal/report"
)

// chaosScale sizes the four storms.
type chaosScale struct {
	machines int // machines per storm
	rounds   int // WAL-storm transition rounds
	actions  int // network-storm admin actions
	events   int // webhook-storm notifications
}

func cmdChaos(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetsim chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: fleetsim chaos") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	sc := chaosScale{machines: 48, rounds: 18, actions: 96, events: 128}

	dir, err := os.MkdirTemp("", "fleetsim-chaos-")
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	storms := []struct {
		name string
		run  func(string, chaosScale) (string, error)
	}{
		{"wal storm", walStorm},
		{"pool storm", poolStorm},
		{"net storm", netStorm},
		{"webhook storm", webhookStorm},
	}
	for _, st := range storms {
		summary, err := st.run(dir, sc)
		if err != nil {
			fmt.Fprintf(stderr, "chaos: FAIL: %s: %v\n", st.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "chaos: %s: %s\n", st.name, summary)
	}
	fmt.Fprintln(stdout, "chaos: all invariants held")
	return 0
}

// chaosMachine names machine i in a storm's fleet.
func chaosMachine(i int) string { return fmt.Sprintf("m%03d", i) }

// walStorm hammers a WAL-backed ledger while the disk under it fails:
// outright write failures, torn writes, fsync failures, and a sticky
// full-disk window mid-storm. After the storm the ledger is reopened and
// must replay to exactly the live (acknowledged) state. A coda breaks the
// append rollback itself and proves the log goes read-only, not corrupt.
func walStorm(dir string, sc chaosScale) (string, error) {
	fsys := chaos.NewFS(nil)
	path := filepath.Join(dir, "wal-storm.wal")
	mgr, _, err := lifecycle.Open(path, lifecycle.Options{FS: fsys})
	if err != nil {
		return "", err
	}
	defer mgr.Close()

	ops, acked := 0, 0
	for round := 0; round < sc.rounds; round++ {
		// One round of sticky disk-full in the middle of the storm; every
		// write in it must fail and the health latch must report it.
		enospc := round == sc.rounds/2
		fsys.SetENOSPC(enospc)
		for i := 0; i < sc.machines; i++ {
			// Deterministic fault pattern: roughly one op in three runs
			// over a freshly armed disk fault.
			switch (round*sc.machines + i) % 7 {
			case 1:
				fsys.FailWrites(1)
			case 3:
				fsys.TornWrites(1)
			case 5:
				fsys.FailSyncs(1)
			}
			m := chaosMachine(i)
			before, beforeOK := mgr.State(m)
			var opErr error
			switch {
			case !beforeOK || before.State == lifecycle.Healthy:
				_, opErr = mgr.Cordon(m, round, "chaos", "storm")
			case before.State == lifecycle.Cordoned:
				_, opErr = mgr.Drain(m, round, "chaos", "storm")
			case before.State == lifecycle.Draining:
				_, opErr = mgr.MarkDrained(m, round, "storm")
			case before.State == lifecycle.Drained:
				_, opErr = mgr.StartRepair(m, round, "storm")
			case before.State == lifecycle.Repairing, before.State == lifecycle.Probation:
				_, opErr = mgr.Reintroduce(m, round, "chaos", "storm")
			default: // Removed recidivists stay removed.
				continue
			}
			ops++
			if opErr != nil {
				// Invariant 1: a failed operation left the record exactly
				// as it was (or never created one).
				after, afterOK := mgr.State(m)
				if beforeOK != afterOK || (beforeOK && before != after) {
					return "", fmt.Errorf("machine %s changed across failed op: %+v -> %+v (err %v)", m, before, after, opErr)
				}
				if enospc && mgr.WALHealth() == nil {
					return "", fmt.Errorf("WAL health not latched during disk-full window")
				}
				continue
			}
			acked++
		}
	}
	fsys.SetENOSPC(false)
	// Probe until an append lands on clean disk (faults armed during the
	// disk-full window can outlive it, since the full-disk failure fires
	// first); the first success must clear the health latch.
	cleared := false
	for i := 0; i < sc.machines && !cleared; i++ {
		if _, err := mgr.Cordon(fmt.Sprintf("latch-probe-%d", i), sc.rounds, "chaos", "storm"); err == nil {
			cleared = true
			if mgr.WALHealth() != nil {
				return "", fmt.Errorf("WAL health latch not cleared by successful append: %v", mgr.WALHealth())
			}
		}
	}
	if !cleared {
		return "", fmt.Errorf("no append succeeded after the storm cleared")
	}
	if fsys.Injected() == 0 {
		return "", fmt.Errorf("storm injected no faults — harness is miswired")
	}

	// Invariant 4: reopen on a clean disk; the replayed ledger must equal
	// the live one, record for record, deferred intent for intent.
	live := mgr.List()
	liveDef := mgr.DeferredDrains()
	if err := mgr.Close(); err != nil {
		return "", err
	}
	re, info, err := lifecycle.Open(path, lifecycle.Options{})
	if err != nil {
		return "", err
	}
	defer re.Close()
	if !reflect.DeepEqual(re.List(), live) || !reflect.DeepEqual(re.DeferredDrains(), liveDef) {
		return "", fmt.Errorf("replayed ledger differs from acked state (recovered %d records, %d torn bytes)", info.Records, info.TornBytes)
	}

	// Coda: break the rollback path itself. The log must refuse further
	// appends rather than corrupt, and still replay its acked prefix.
	if err := brokenLogCheck(dir); err != nil {
		return "", err
	}
	return fmt.Sprintf("%d ops (%d acked) through %d disk faults; replay matches acked prefix; broken-log refusal holds",
		ops, acked, fsys.Injected()), nil
}

// brokenLogCheck arms a torn write whose rollback truncate also fails:
// the WAL must latch broken, refuse all further appends, and the file
// must still replay to the acknowledged prefix.
func brokenLogCheck(dir string) error {
	fsys := chaos.NewFS(nil)
	path := filepath.Join(dir, "broken.wal")
	mgr, _, err := lifecycle.Open(path, lifecycle.Options{FS: fsys})
	if err != nil {
		return err
	}
	defer mgr.Close()
	if _, err := mgr.Cordon("b0", 0, "chaos", "storm"); err != nil {
		return fmt.Errorf("seed append failed: %v", err)
	}
	fsys.TornWrites(1)
	fsys.FailTruncates(1)
	if _, err := mgr.Cordon("b1", 1, "chaos", "storm"); err == nil {
		return fmt.Errorf("torn write with failed rollback was acked")
	}
	if _, err := mgr.Cordon("b2", 2, "chaos", "storm"); err == nil {
		return fmt.Errorf("broken log accepted a further append")
	}
	live := mgr.List()
	mgr.Close()
	re, info, err := lifecycle.Open(path, lifecycle.Options{})
	if err != nil {
		return fmt.Errorf("reopen of broken log: %v", err)
	}
	defer re.Close()
	if info.TornBytes == 0 {
		return fmt.Errorf("reopen saw no torn tail on the broken log")
	}
	if !reflect.DeepEqual(re.List(), live) {
		return fmt.Errorf("broken log replayed beyond its acked prefix")
	}
	return nil
}

// poolStorm drains an entire two-pool fleet at once. Requests that would
// breach a floor must park on the deferred queue (never refuse, never
// breach), and as repaired machines return every parked intent must be
// admitted — the queue ends empty with the floors intact throughout.
func poolStorm(dir string, sc chaosScale) (string, error) {
	path := filepath.Join(dir, "pool-storm.wal")
	mgr, _, err := lifecycle.Open(path, lifecycle.Options{})
	if err != nil {
		return "", err
	}
	defer mgr.Close()

	mgr.DefinePool(lifecycle.PoolConfig{Name: "prod", MinHealthy: 0.6})
	mgr.DefinePool(lifecycle.PoolConfig{Name: "web", MinHealthyCount: sc.machines / 8})
	for i := 0; i < sc.machines; i++ {
		pool := "prod"
		if i%2 == 1 {
			pool = "web"
		}
		if err := mgr.AssignPool(chaosMachine(i), pool); err != nil {
			return "", err
		}
	}
	checkFloors := func() error {
		// Invariant 2: no pool below its floor, checked after every op.
		for _, p := range mgr.Pools() {
			if p.Serving < p.Floor {
				return fmt.Errorf("pool %s at %d serving, floor %d", p.Name, p.Serving, p.Floor)
			}
		}
		return nil
	}

	deferred := 0
	for i := 0; i < sc.machines; i++ {
		score := float64((i * 37) % 100)
		_, err := mgr.DrainScored(chaosMachine(i), 0, "chaos", "storm", score)
		switch {
		case err == lifecycle.ErrDeferred:
			deferred++
		case err != nil:
			return "", err
		}
		if err := checkFloors(); err != nil {
			return "", err
		}
	}
	if deferred == 0 {
		return "", fmt.Errorf("no drain was deferred — floors are not gating")
	}

	// Repair loop: march every out-of-service machine back toward service.
	// Each return sweeps the deferred queue, draining the next victim, so
	// the queue must hit empty within a bounded number of passes.
	passes := 0
	for day := 1; len(mgr.DeferredDrains()) > 0 || outOfService(mgr) > 0; day++ {
		if passes++; passes > 6*sc.machines {
			return "", fmt.Errorf("deferred queue never drained: %d intents left after %d passes", len(mgr.DeferredDrains()), passes)
		}
		for _, r := range mgr.List() {
			var err error
			switch r.State {
			case lifecycle.Draining:
				_, err = mgr.MarkDrained(r.Machine, day, "storm")
			case lifecycle.Drained:
				_, err = mgr.StartRepair(r.Machine, day, "storm")
			case lifecycle.Repairing, lifecycle.Probation:
				_, err = mgr.Reintroduce(r.Machine, day, "repaired", "storm")
			}
			if err != nil {
				return "", err
			}
			if err := checkFloors(); err != nil {
				return "", err
			}
		}
	}
	// Invariant 3 held: the queue is empty and every machine is serving
	// again, so each of the deferred drains completed a full drain cycle.
	for _, r := range mgr.List() {
		if r.Transitions == 0 {
			return "", fmt.Errorf("machine %s never drained", r.Machine)
		}
	}
	return fmt.Sprintf("%d drains (%d deferred) with floors intact; queue drained in %d passes",
		sc.machines, deferred, passes), nil
}

// outOfService counts machines not currently serving traffic.
func outOfService(m *lifecycle.Manager) int {
	n := 0
	for st, c := range m.CountByState() {
		switch st {
		case lifecycle.Healthy, lifecycle.Suspect, lifecycle.Probation:
		default:
			n += c
		}
	}
	return n
}

// netStorm partitions the admin API from its operator: every cordon rides
// through a transport that drops, resets, or 503s the first try. The
// retrying client must land them all, and — the acked-implies-durable
// invariant — after a cold restart of the daemon's WAL every acked cordon
// must still be there.
func netStorm(dir string, sc chaosScale) (string, error) {
	path := filepath.Join(dir, "net-storm.wal")
	mgr, _, err := lifecycle.Open(path, lifecycle.Options{})
	if err != nil {
		return "", err
	}
	srv := report.NewServer(8)
	srv.SetLifecycle(mgr)
	ts := httptest.NewServer(srv.Handler())

	tr := chaos.NewTransport(nil)
	client := &report.Client{
		BaseURL:      ts.URL,
		HTTPClient:   &http.Client{Transport: tr},
		MaxAttempts:  6,
		RetryBackoff: time.Millisecond,
		JitterSeed:   7,
	}
	ctx := context.Background()
	acked := make([]string, 0, sc.actions)
	for i := 0; i < sc.actions; i++ {
		switch i % 4 {
		case 0:
			tr.Inject(chaos.Drop, 1)
		case 1:
			tr.Inject(chaos.HTTP503, 1)
		case 2:
			tr.Inject(chaos.Reset, 1)
		}
		m := chaosMachine(i)
		rec, err := client.MachineAction(ctx, m, "cordon", report.ActionRequest{Reason: "chaos", Actor: "storm", Day: i})
		if err != nil {
			return "", fmt.Errorf("cordon %s did not survive retry: %v", m, err)
		}
		if rec.State != "cordoned" {
			return "", fmt.Errorf("cordon %s acked state %q", m, rec.State)
		}
		acked = append(acked, m)
	}
	fired := 0
	for _, n := range tr.Fired() {
		fired += n
	}
	if fired == 0 {
		return "", fmt.Errorf("no network faults fired — harness is miswired")
	}
	if tr.Pending() != 0 {
		return "", fmt.Errorf("%d injected faults never consumed", tr.Pending())
	}

	// Cold restart: close everything, reopen the WAL, and check that each
	// acked cordon survived.
	ts.Close()
	srv.Close()
	if err := mgr.Close(); err != nil {
		return "", err
	}
	re, _, err := lifecycle.Open(path, lifecycle.Options{})
	if err != nil {
		return "", err
	}
	defer re.Close()
	for _, m := range acked {
		rec, ok := re.State(m)
		if !ok || rec.State != lifecycle.Cordoned {
			return "", fmt.Errorf("acked cordon of %s lost across restart (state %v)", m, rec.State)
		}
	}
	return fmt.Sprintf("%d/%d actions acked through %d network faults, all durable across restart",
		len(acked), sc.actions, fired), nil
}

// webhookStorm pushes notifications through a faulty network: most events
// face one or two injected faults (up to a drop AND a 503 back to back)
// before their POST gets through. Deliveries are synchronous here so each
// event's faults are consumed by that event's retries, keeping the storm
// deterministic; the async queue's own semantics are covered by the
// remediate unit tests. Every event must land exactly once.
func webhookStorm(_ string, sc chaosScale) (string, error) {
	var received atomic.Int64
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		received.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer collector.Close()

	tr := chaos.NewTransport(nil)
	hook := &remediate.WebhookNotifier{
		URL:         collector.URL,
		Client:      &http.Client{Transport: tr},
		MaxAttempts: 4,
		Backoff:     time.Millisecond,
	}
	for i := 0; i < sc.events; i++ {
		switch i % 4 {
		case 0:
			tr.Inject(chaos.Drop, 1)
			tr.Inject(chaos.HTTP503, 1)
		case 1:
			tr.Inject(chaos.HTTP503, 1)
		case 2:
			tr.Inject(chaos.Drop, 1)
		}
		hook.Notify(remediate.Event{Day: i, Machine: chaosMachine(i), From: "healthy", To: "cordoned", Reason: "chaos"})
		if tr.Pending() != 0 {
			return "", fmt.Errorf("event %d left %d armed faults unconsumed", i, tr.Pending())
		}
	}
	fired := 0
	for _, n := range tr.Fired() {
		fired += n
	}
	switch {
	case fired == 0:
		return "", fmt.Errorf("no network faults fired — harness is miswired")
	case hook.Failed() != 0:
		return "", fmt.Errorf("%d events exhausted their retries", hook.Failed())
	case hook.Delivered() != sc.events:
		return "", fmt.Errorf("delivered %d of %d events", hook.Delivered(), sc.events)
	case int(received.Load()) != sc.events:
		return "", fmt.Errorf("collector received %d of %d events", received.Load(), sc.events)
	}
	return fmt.Sprintf("%d events delivered exactly once through %d network faults", sc.events, fired), nil
}
