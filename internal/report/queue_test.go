package report

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/lifecycle"
	"repro/internal/xrand"
)

func postBatch(t *testing.T, url string, b Batch) (*http.Response, BatchAck) {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/reports", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack BatchAck
	json.NewDecoder(resp.Body).Decode(&ack)
	return resp, ack
}

func makeBatch(source string, seq uint64, machine string, n int) Batch {
	reps := make([]Report, n)
	for i := range reps {
		reps[i] = Report{Machine: machine, Core: 3, Kind: "crash", TimeSec: float64(i)}
	}
	return Batch{Source: source, Seq: seq, Reports: reps}
}

func TestBatchSynchronousIngest(t *testing.T) {
	srv := NewServer(16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, ack := postBatch(t, ts.URL, makeBatch("host-a", 1, "m00001", 5))
	if resp.StatusCode != http.StatusAccepted || ack.Status != "accepted" || ack.Accepted != 5 {
		t.Fatalf("batch: %d %+v", resp.StatusCode, ack)
	}
	if srv.TotalReports() != 5 {
		t.Fatalf("total %d, want 5", srv.TotalReports())
	}
}

func TestBatchValidationAtomicity(t *testing.T) {
	srv := NewServer(16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	b := makeBatch("host-a", 1, "m00001", 3)
	b.Reports[1].Machine = "" // invalid member poisons the whole batch
	resp, _ := postBatch(t, ts.URL, b)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if srv.TotalReports() != 0 {
		t.Fatalf("partial batch ingested: total %d", srv.TotalReports())
	}
	// A rejected (source, seq) must not be remembered: the corrected
	// retry under the same key has to land.
	resp, ack := postBatch(t, ts.URL, makeBatch("host-a", 1, "m00001", 3))
	if resp.StatusCode != http.StatusAccepted || ack.Status != "accepted" {
		t.Fatalf("corrected retry: %d %+v", resp.StatusCode, ack)
	}
}

// TestBatchIdempotency delivers a batch stream shuffled, duplicated, and
// re-delivered, and asserts the tracker ends exactly as it does under
// one in-order delivery of the unique batches.
func TestBatchIdempotency(t *testing.T) {
	// Ground truth: each batch delivered once, in order.
	want := NewServer(16)
	batches := make([]Batch, 0, 20)
	for seq := uint64(1); seq <= 20; seq++ {
		machine := fmt.Sprintf("m%05d", seq%4)
		batches = append(batches, makeBatch("host-a", seq, machine, 3))
	}
	tsWant := httptest.NewServer(want.Handler())
	defer tsWant.Close()
	for _, b := range batches {
		if resp, _ := postBatch(t, tsWant.URL, b); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ground truth delivery failed: %d", resp.StatusCode)
		}
	}

	// Chaos delivery: shuffled order, every batch delivered 1-3 times.
	got := NewServer(16)
	tsGot := httptest.NewServer(got.Handler())
	defer tsGot.Close()
	rng := xrand.New(42)
	var deliveries []Batch
	for _, b := range batches {
		for k := uint64(0); k <= rng.Uint64n(3); k++ {
			deliveries = append(deliveries, b)
		}
	}
	for i := len(deliveries) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
	}
	dups := 0
	for _, b := range deliveries {
		resp, ack := postBatch(t, tsGot.URL, b)
		switch {
		case resp.StatusCode == http.StatusAccepted:
		case resp.StatusCode == http.StatusOK && ack.Status == "duplicate":
			dups++
		default:
			t.Fatalf("delivery: %d %+v", resp.StatusCode, ack)
		}
	}
	if len(deliveries) > len(batches) && dups == 0 {
		t.Fatalf("%d deliveries of %d batches produced no duplicates", len(deliveries), len(batches))
	}
	if got.TotalReports() != want.TotalReports() {
		t.Fatalf("total %d, want %d", got.TotalReports(), want.TotalReports())
	}
	gs, ws := got.Suspects(), want.Suspects()
	if len(gs) != len(ws) {
		t.Fatalf("suspects %d, want %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i].Machine != ws[i].Machine || gs[i].Core != ws[i].Core || gs[i].Reports != ws[i].Reports {
			t.Fatalf("suspect %d: %+v, want %+v", i, gs[i], ws[i])
		}
	}
}

// TestQueueDefersAndDrains exercises the queued path end to end: batches
// answer 202 deferred, the drainer lands them, Close flushes.
func TestQueueDefersAndDrains(t *testing.T) {
	srv := NewServer(16)
	srv.EnableQueue(1000)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for seq := uint64(1); seq <= 10; seq++ {
		resp, ack := postBatch(t, ts.URL, makeBatch("host-a", seq, "m00001", 4))
		if resp.StatusCode != http.StatusAccepted || ack.Status != "deferred" {
			t.Fatalf("seq %d: %d %+v", seq, resp.StatusCode, ack)
		}
	}
	srv.Close() // flush
	if srv.TotalReports() != 40 {
		t.Fatalf("after flush total %d, want 40", srv.TotalReports())
	}
}

// blockingSignalServer returns a server whose OnSignal callback blocks
// until release is closed — a deliberately slow sink that backs the
// queue up.
func blockingSignalServer(capacity int) (*Server, chan struct{}) {
	srv := NewServer(16)
	release := make(chan struct{})
	srv.OnSignal = func(detect.Signal) { <-release }
	srv.EnableQueue(capacity)
	return srv, release
}

// TestQueueShedsUnderOverload floods a tiny queue behind a blocked sink
// and asserts: explicit 429s with Retry-After, bounded depth, and exact
// signal accounting across deferred/shed.
func TestQueueShedsUnderOverload(t *testing.T) {
	const capacity = 20
	srv, release := blockingSignalServer(capacity)
	srv.RetryAfterSec = 7
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		mu                  sync.Mutex
		shed, deferred, tot int
	)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				seq := uint64(w*10 + i + 1)
				resp, ack := postBatch(t, ts.URL, makeBatch(fmt.Sprintf("host-%d", w), seq, "m00001", 5))
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusTooManyRequests:
					shed++
					if got := resp.Header.Get("Retry-After"); got != "7" {
						t.Errorf("Retry-After %q, want 7", got)
					}
				case http.StatusAccepted:
					deferred += ack.Accepted
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				tot++
				mu.Unlock()
				if d := srv.QueueDepth(); d > capacity {
					t.Errorf("queue depth %d exceeds capacity %d", d, capacity)
				}
			}
		}(w)
	}
	wg.Wait()
	if shed == 0 {
		t.Fatal("flood against a blocked sink shed nothing")
	}
	if deferred == 0 {
		t.Fatal("no batch was accepted before the queue filled")
	}
	close(release)
	srv.Close()
	// Every deferred signal (and only those) must have been ingested.
	if srv.TotalReports() != deferred {
		t.Fatalf("total %d, want %d deferred", srv.TotalReports(), deferred)
	}
	snap := srv.Metrics().Snapshot()
	vals := map[string]float64{}
	for _, s := range snap {
		key := s.Name
		for _, l := range s.Labels {
			key += "|" + l.Value
		}
		vals[key] = s.Value
	}
	if int(vals["ceereport_signals_shed_total"]) != shed*5 {
		t.Fatalf("shed counter %v, want %d", vals["ceereport_signals_shed_total"], shed*5)
	}
	if int(vals["ceereport_signals_deferred_total"]) != deferred {
		t.Fatalf("deferred counter %v, want %d", vals["ceereport_signals_deferred_total"], deferred)
	}
}

// TestQueueDropOldestDuplicate re-delivers a batch still sitting in the
// queue and asserts the queued copy is replaced in place — no extra
// capacity consumed, newer payload wins, ingested once.
func TestQueueDropOldestDuplicate(t *testing.T) {
	srv, release := blockingSignalServer(100)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Park a sacrificial batch so the drainer is busy blocking on it and
	// the next batch stays queued.
	postBatch(t, ts.URL, makeBatch("host-a", 1, "m00009", 1))
	waitFor(t, func() bool { return srv.QueueDepth() == 0 })

	resp, ack := postBatch(t, ts.URL, makeBatch("host-a", 2, "m00001", 4))
	if resp.StatusCode != http.StatusAccepted || ack.Status != "deferred" {
		t.Fatalf("first delivery: %d %+v", resp.StatusCode, ack)
	}
	// Re-deliver seq 2 with a different payload: must replace, not stack.
	replacement := makeBatch("host-a", 2, "m00002", 6)
	resp, ack = postBatch(t, ts.URL, replacement)
	if resp.StatusCode != http.StatusAccepted || ack.Status != "replaced" {
		t.Fatalf("re-delivery: %d %+v", resp.StatusCode, ack)
	}
	if d := srv.QueueDepth(); d != 6 {
		t.Fatalf("queue depth %d after replace, want 6", d)
	}
	close(release)
	srv.Close()
	// 1 sacrificial + 6 replacement signals; the replaced 4 never land.
	if srv.TotalReports() != 7 {
		t.Fatalf("total %d, want 7", srv.TotalReports())
	}
	if n := srv.Suspects(); len(n) != 1 || n[0].Machine != "m00002" {
		t.Fatalf("replacement payload should win: %+v", n)
	}
}

// TestQueueDuplicateAfterIngest re-delivers a batch after it drained and
// asserts the idempotency window rejects it.
func TestQueueDuplicateAfterIngest(t *testing.T) {
	srv := NewServer(16)
	srv.EnableQueue(100)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postBatch(t, ts.URL, makeBatch("host-a", 5, "m00001", 3))
	waitFor(t, func() bool { return srv.TotalReports() == 3 })
	resp, ack := postBatch(t, ts.URL, makeBatch("host-a", 5, "m00001", 3))
	if resp.StatusCode != http.StatusOK || ack.Status != "duplicate" {
		t.Fatalf("re-delivery after drain: %d %+v", resp.StatusCode, ack)
	}
	srv.Close()
	if srv.TotalReports() != 3 {
		t.Fatalf("duplicate ingested: total %d", srv.TotalReports())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientHonorsRetryAfter points the client at a server that sheds
// with Retry-After: 3 once, then accepts, and asserts the retry slept at
// least the hinted duration (not just the tiny base backoff).
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "3")
			writeError(w, http.StatusTooManyRequests, "shed")
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(BatchAck{Status: "accepted", Accepted: 1})
	}))
	defer ts.Close()
	var slept []time.Duration
	c := &Client{
		BaseURL:      ts.URL,
		RetryBackoff: time.Millisecond,
		JitterSeed:   1,
		sleep:        func(d time.Duration) { slept = append(slept, d) },
	}
	ack, err := c.ReportBatch(makeBatch("host-a", 1, "m00001", 1))
	if err != nil || ack.Status != "accepted" {
		t.Fatalf("batch after shed: %+v %v", ack, err)
	}
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("slept %v, want exactly the 3s Retry-After hint", slept)
	}
}

// TestClientCapsRetryAfter bounds a hostile Retry-After at
// defaultMaxRetryAfter; the sleep seam records the wait without taking it.
func TestClientCapsRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "86400")
		writeError(w, http.StatusServiceUnavailable, "down")
	}))
	defer ts.Close()
	var slept []time.Duration
	c := &Client{
		BaseURL:      ts.URL,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		JitterSeed:   1,
		sleep:        func(d time.Duration) { slept = append(slept, d) },
	}
	if err := c.Report(context.Background(), Report{Machine: "m1", Core: 0, Kind: "crash"}); err == nil {
		t.Fatal("permanently unavailable server should error")
	}
	if len(slept) != 1 || slept[0] != defaultMaxRetryAfter {
		t.Fatalf("slept %v, want the %v cap", slept, defaultMaxRetryAfter)
	}
}

// TestClientContextCancelsRetryLoop cancels mid-backoff and asserts the
// call returns promptly with the context error.
func TestClientContextCancelsRetryLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable, "down")
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		BaseURL:      ts.URL,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		JitterSeed:   1,
		sleep:        func(time.Duration) { cancel() },
	}
	err := c.Report(ctx, Report{Machine: "m1", Core: 0, Kind: "crash"})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err %v, want context cancellation", err)
	}
}

// TestClientContextDeadlinePropagates gives a stalled server a short
// per-call deadline and asserts it is respected.
func TestClientContextDeadlinePropagates(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer ts.Close()
	defer close(stall)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := &Client{BaseURL: ts.URL, MaxAttempts: 1, HTTPClient: &http.Client{}}
	start := time.Now()
	if _, err := c.SuspectsContext(ctx); err == nil {
		t.Fatal("stalled server with deadline should error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("deadline ignored: call took %v", time.Since(start))
	}
}

// TestAdminAPI drives the lifecycle verbs over HTTP.
func TestAdminAPI(t *testing.T) {
	mgr, _, err := lifecycle.Open(filepath.Join(t.TempDir(), "admin.wal"), lifecycle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := NewServer(16)
	srv.SetLifecycle(mgr)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	rec, err := c.MachineAction(ctx, "m00007", "drain", ActionRequest{Reason: "kernel upgrade"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != "drained" {
		t.Fatalf("drain verb left %q, want drained (daemon drains immediately)", rec.State)
	}
	if _, err := c.MachineAction(ctx, "m00009", "cordon", ActionRequest{}); err != nil {
		t.Fatal(err)
	}
	// Illegal transition → 409, ledger unchanged.
	if _, err := c.MachineAction(ctx, "m00007", "release", ActionRequest{}); err != nil {
		// drained → healthy is legal via release; this must succeed.
		t.Fatalf("release drained machine: %v", err)
	}
	if _, err := c.MachineAction(ctx, "m00009", "repair", ActionRequest{}); err == nil {
		t.Fatal("repair on a cordoned (not drained) machine must 409")
	} else if !strings.Contains(err.Error(), "409") {
		t.Fatalf("want 409 in error, got %v", err)
	}

	all, err := c.Machines(ctx, "", "")
	if err != nil || len(all) != 2 {
		t.Fatalf("machines: %+v %v", all, err)
	}
	cordoned, err := c.Machines(ctx, "cordoned", "")
	if err != nil || len(cordoned) != 1 || cordoned[0].Machine != "m00009" {
		t.Fatalf("filtered machines: %+v %v", cordoned, err)
	}
	if _, err := c.Machines(ctx, "bogus", ""); err == nil {
		t.Fatal("bogus state filter must 400")
	}
	one, err := c.Machine(ctx, "m00009")
	if err != nil || one.State != "cordoned" {
		t.Fatalf("machine get: %+v %v", one, err)
	}
	if _, err := c.Machine(ctx, "m99999"); err == nil {
		t.Fatal("unknown machine must 404")
	}
	if _, err := c.MachineAction(ctx, "m00009", "explode", ActionRequest{}); err == nil {
		t.Fatal("unknown verb must 404")
	}
}

// TestAdminAPIAbsentWithoutLifecycle: no SetLifecycle, no routes.
func TestAdminAPIAbsentWithoutLifecycle(t *testing.T) {
	srv := NewServer(16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
