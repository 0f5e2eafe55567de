package report

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/lifecycle"
	"repro/internal/simtime"
)

func newTestService(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer(64)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &Client{BaseURL: ts.URL}
}

func TestReportAndSuspectsRoundTrip(t *testing.T) {
	_, c := newTestService(t)
	for i := 0; i < 6; i++ {
		err := c.Report(context.Background(), Report{Machine: "m1", Core: 9, Kind: "app-error", TimeSec: float64(i)})
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	sus, err := c.Suspects()
	if err != nil {
		t.Fatal(err)
	}
	if len(sus) != 1 || sus[0].Machine != "m1" || sus[0].Core != 9 || sus[0].Reports != 6 {
		t.Fatalf("suspects = %+v", sus)
	}
	if sus[0].Score <= 0 {
		t.Fatalf("score = %v", sus[0].Score)
	}
}

func TestStats(t *testing.T) {
	_, c := newTestService(t)
	for i := 0; i < 4; i++ {
		if err := c.Report(context.Background(), Report{Machine: "mA", Core: 1, Kind: "crash"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Report(context.Background(), Report{Machine: "mB", Core: -1, Kind: "mce"}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalReports != 5 {
		t.Fatalf("total = %d", st.TotalReports)
	}
	// mB never produced a nomination, but it reported — it must count.
	if st.Suspects != 1 || st.Machines != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatsCountsNonNominatedMachines(t *testing.T) {
	srv, c := newTestService(t)
	// One report each from ten machines: zero suspects, ten machines.
	for i := 0; i < 10; i++ {
		if err := c.Report(context.Background(), Report{Machine: fmt.Sprintf("m%02d", i), Core: 0, Kind: "crash"}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Suspects != 0 || st.Machines != 10 || st.TotalReports != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if srv.ReportingMachines() != 10 {
		t.Fatalf("ReportingMachines = %d", srv.ReportingMachines())
	}
}

func TestRejectsBadRequests(t *testing.T) {
	srv := NewServer(8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/report -> %d", resp.StatusCode)
	}

	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/v1/report", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON -> %d", resp.StatusCode)
	}

	// Missing machine.
	resp, err = http.Post(ts.URL+"/v1/report", "application/json", strings.NewReader(`{"core":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing machine -> %d", resp.StatusCode)
	}

	// Wrong method on suspects.
	resp, err = http.Post(ts.URL+"/v1/suspects", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/suspects -> %d", resp.StatusCode)
	}

	if srv.TotalReports() != 0 {
		t.Fatalf("bad requests were counted: %d", srv.TotalReports())
	}
}

func TestHealthz(t *testing.T) {
	srv := NewServer(8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz -> %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var h HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q", h.Status)
	}
}

func TestErrorEnvelope(t *testing.T) {
	wal, _, _, err := lifecycle.OpenWAL(filepath.Join(t.TempDir(), "envelope.wal"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := lifecycle.NewManager(lifecycle.Options{WAL: wal})
	defer mgr.Close()
	if _, err := mgr.MarkSuspect("m2", 0, "setup"); err != nil {
		t.Fatal(err)
	}
	seq := wal.Seq()
	srv := NewServer(8)
	srv.SetLifecycle(mgr)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bigAction := `{"reason":"` + strings.Repeat("x", 70<<10) + `"}`
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"wrong method on report", http.MethodGet, "/v1/report", "", http.StatusMethodNotAllowed},
		{"malformed json", http.MethodPost, "/v1/report", "{nope", http.StatusBadRequest},
		{"missing machine", http.MethodPost, "/v1/report", `{"core":1}`, http.StatusBadRequest},
		{"wrong method on suspects", http.MethodPost, "/v1/suspects", "{}", http.StatusMethodNotAllowed},
		{"wrong method on stats", http.MethodPost, "/v1/stats", "{}", http.StatusMethodNotAllowed},
		{"wrong method on healthz", http.MethodPost, "/v1/healthz", "{}", http.StatusMethodNotAllowed},
		{"wrong method on a machine", http.MethodDelete, "/v1/machines/m1", "", http.StatusMethodNotAllowed},
		{"wrong method on pools", http.MethodPost, "/v1/pools", "{}", http.StatusMethodNotAllowed},
		{"unknown path", http.MethodGet, "/v1/nope", "", http.StatusNotFound},
		{"oversized action body", http.MethodPost, "/v1/machines/m2/cordon", bigAction, http.StatusRequestEntityTooLarge},
		{"garbage after action body", http.MethodPost, "/v1/machines/m2/cordon", `{"reason":"a"} garbage`, http.StatusBadRequest},
		{"two action bodies", http.MethodPost, "/v1/machines/m2/cordon", `{"reason":"a"}{"reason":"b"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type = %q, want application/json", tc.name, ct)
		}
		var e ErrorJSON
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: body is not the error envelope: %v", tc.name, err)
		}
		resp.Body.Close()
		if e.Error == "" {
			t.Fatalf("%s: empty error message", tc.name)
		}
	}
	// The refused admin verbs applied and logged nothing.
	if got := wal.Seq(); got != seq {
		t.Fatalf("WAL seq %d -> %d: a refused verb was logged", seq, got)
	}
	if rec, _ := mgr.State("m2"); rec.State != lifecycle.Suspect {
		t.Fatalf("m2 is %v after refused verbs, want suspect", rec.State)
	}
	// Only the wrong method on an ingest route counts as a rejected report.
	var text bytes.Buffer
	srv.Metrics().WritePrometheus(&text)
	if want := `ceereport_reports_rejected_total{reason="method"} 1` + "\n"; !strings.Contains(text.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, text.String())
	}
}

func TestIngestBatchMatchesSerialIngest(t *testing.T) {
	sigs := make([]detect.Signal, 0, 12)
	for i := 0; i < 12; i++ {
		sigs = append(sigs, detect.Signal{
			Machine: "m", Core: i % 3, Kind: detect.SigCrash,
			Time: simtime.Time(i),
		})
	}
	one, batch := NewServer(16), NewServer(16)
	var seen int
	batch.OnSignal = func(detect.Signal) { seen++ }
	for _, s := range sigs {
		one.Ingest(s)
	}
	batch.IngestBatch(nil) // no-op
	batch.IngestBatch(sigs)
	if got, want := batch.TotalReports(), one.TotalReports(); got != want {
		t.Fatalf("totals diverge: batch %d, serial %d", got, want)
	}
	if seen != len(sigs) {
		t.Fatalf("OnSignal saw %d of %d", seen, len(sigs))
	}
	a, b := one.Suspects(), batch.Suspects()
	if len(a) != len(b) {
		t.Fatalf("suspects diverge: %+v vs %+v", a, b)
	}
	for i := range a {
		if a[i].Machine != b[i].Machine || a[i].Core != b[i].Core || a[i].Reports != b[i].Reports {
			t.Fatalf("suspect %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}

	// IngestBatch counts accepted signals once per run of equal kinds; the
	// exposition must match one-at-a-time Ingest byte for byte, including
	// for a kind outside the named range.
	kinds := []detect.SignalKind{detect.SigCrash, detect.SigCrash, detect.SigMCE,
		detect.SigCrash, detect.SigAppError, detect.SignalKind(99), detect.SigAppError}
	mixed := make([]detect.Signal, len(kinds))
	for i, k := range kinds {
		mixed[i] = detect.Signal{Machine: "m", Core: i % 3, Kind: k, Time: simtime.Time(i)}
	}
	for _, s := range mixed {
		one.Ingest(s)
	}
	batch.IngestBatch(mixed)
	var wantText, gotText bytes.Buffer
	one.Metrics().WritePrometheus(&wantText)
	batch.Metrics().WritePrometheus(&gotText)
	if !bytes.Equal(gotText.Bytes(), wantText.Bytes()) {
		t.Fatalf("metrics diverge:\nbatch:\n%s\nserial:\n%s", gotText.Bytes(), wantText.Bytes())
	}
	if !strings.Contains(gotText.String(), `ceereport_signals_accepted_total{kind="crash"} 15`) {
		t.Fatalf("crash count not 12+3:\n%s", gotText.Bytes())
	}
}

func TestKindMapping(t *testing.T) {
	cases := map[string]struct {
		kind  detect.SignalKind
		known bool
	}{
		"crash":       {detect.SigCrash, true},
		"mce":         {detect.SigMCE, true},
		"sanitizer":   {detect.SigSanitizer, true},
		"app-error":   {detect.SigAppError, true},
		"screen-fail": {detect.SigScreenFail, true},
		"user-report": {detect.SigUserReport, true},
		"mystery":     {detect.SigAppError, false}, // unknown degrades gracefully
	}
	for s, want := range cases {
		got, known := kindFromString(s)
		if got != want.kind || known != want.known {
			t.Fatalf("kindFromString(%q) = (%v, %v), want (%v, %v)",
				s, got, known, want.kind, want.known)
		}
	}
}

func TestUnknownKindCounted(t *testing.T) {
	srv, c := newTestService(t)
	for i := 0; i < 3; i++ {
		if err := c.Report(context.Background(), Report{Machine: "m", Core: 0, Kind: "mystery-kind"}); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	if err := c.Report(context.Background(), Report{Machine: "m", Core: 0, Kind: "app-error"}); err != nil {
		t.Fatalf("report: %v", err)
	}
	snap := srv.Metrics().Snapshot()
	var unknown float64
	for _, m := range snap {
		if m.Name == "ceereport_signals_unknown_kind_total" {
			unknown = m.Value
		}
	}
	if unknown != 3 {
		t.Fatalf("ceereport_signals_unknown_kind_total = %v, want 3", unknown)
	}
	// Coerced signals still land in the tracker as app-error.
	if srv.TotalReports() != 4 {
		t.Fatalf("TotalReports = %d, want 4", srv.TotalReports())
	}
}

func TestOnSignalHook(t *testing.T) {
	srv, c := newTestService(t)
	var mu sync.Mutex
	var got []detect.Signal
	srv.OnSignal = func(s detect.Signal) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	}
	if err := c.Report(context.Background(), Report{Machine: "m", Core: 2, Kind: "sanitizer", Detail: "asan"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Kind != detect.SigSanitizer || got[0].Detail != "asan" {
		t.Fatalf("hook saw %+v", got)
	}
}

func TestIngestDirect(t *testing.T) {
	srv := NewServer(16)
	for i := 0; i < 5; i++ {
		srv.Ingest(detect.Signal{Machine: "m", Core: 5, Kind: detect.SigScreenFail})
	}
	if srv.TotalReports() != 5 {
		t.Fatalf("total = %d", srv.TotalReports())
	}
	sus := srv.Suspects()
	if len(sus) != 1 || sus[0].Core != 5 {
		t.Fatalf("suspects = %+v", sus)
	}
}

func TestConcurrentIngest(t *testing.T) {
	srv := NewServer(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				srv.Ingest(detect.Signal{Machine: "m", Core: g % 4, Kind: detect.SigCrash})
			}
		}(g)
	}
	wg.Wait()
	if srv.TotalReports() != 800 {
		t.Fatalf("total = %d", srv.TotalReports())
	}
}

func TestClientErrorOnUnreachableServer(t *testing.T) {
	// nothing listens here; MaxAttempts 1 keeps the failure immediate
	c := &Client{BaseURL: "http://127.0.0.1:1", MaxAttempts: 1}
	if err := c.Report(context.Background(), Report{Machine: "m"}); err == nil {
		t.Fatal("expected connection error")
	}
	if _, err := c.Suspects(); err == nil {
		t.Fatal("expected connection error")
	}
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("expected connection error")
	}
}

// postReport POSTs raw bytes to /v1/report and returns the status code
// and decoded error envelope (empty for 2xx).
func postReport(t *testing.T, url, body string) (int, ErrorJSON) {
	t.Helper()
	resp, err := http.Post(url+"/v1/report", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorJSON
	if resp.StatusCode/100 != 2 {
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error response Content-Type = %q", ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error body is not the envelope: %v", err)
		}
		if e.Error == "" {
			t.Fatal("empty error message")
		}
	}
	return resp.StatusCode, e
}

func TestRejectsOversizedBody(t *testing.T) {
	srv := NewServer(8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := `{"machine":"m1","core":1,"kind":"crash","detail":"` +
		strings.Repeat("x", 80<<10) + `"}`
	status, _ := postReport(t, ts.URL, big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body -> %d, want 413", status)
	}
	if srv.TotalReports() != 0 {
		t.Fatalf("oversized report was counted: %d", srv.TotalReports())
	}
	// A Detail near (but under) the cap is still fine.
	ok := `{"machine":"m1","core":1,"kind":"crash","detail":"` +
		strings.Repeat("x", 32<<10) + `"}`
	if status, _ := postReport(t, ts.URL, ok); status != http.StatusAccepted {
		t.Fatalf("large-but-legal body -> %d, want 202", status)
	}
}

func TestRejectsTrailingGarbage(t *testing.T) {
	srv := NewServer(8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"machine":"m1","core":1}{"machine":"m2","core":2}`, // second JSON value
		`{"machine":"m1","core":1} trailing`,                 // raw garbage
		`{"machine":"m1","core":1}]`,                         // stray token
	} {
		status, _ := postReport(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("trailing data %q -> %d, want 400", body, status)
		}
	}
	// Trailing whitespace/newline is legal framing, not garbage.
	if status, _ := postReport(t, ts.URL, `{"machine":"m1","core":1}`+"\n  "); status != http.StatusAccepted {
		t.Fatalf("trailing whitespace -> %d, want 202", status)
	}
	if srv.TotalReports() != 1 {
		t.Fatalf("reports counted = %d, want 1", srv.TotalReports())
	}
}

func TestRejectsInvalidCore(t *testing.T) {
	srv := NewServer(8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, e := postReport(t, ts.URL, `{"machine":"m1","core":-2,"kind":"crash"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("core=-2 -> %d, want 400", status)
	}
	if !strings.Contains(e.Error, "core") {
		t.Fatalf("error %q does not mention core", e.Error)
	}
	// -1 (unattributed) and 0 are both legal.
	if status, _ := postReport(t, ts.URL, `{"machine":"m1","core":-1,"kind":"mce"}`); status != http.StatusAccepted {
		t.Fatalf("core=-1 -> %d, want 202", status)
	}
	if status, _ := postReport(t, ts.URL, `{"machine":"m1","core":0,"kind":"mce"}`); status != http.StatusAccepted {
		t.Fatalf("core=0 -> %d, want 202", status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := NewServer(8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	if err := c.Report(context.Background(), Report{Machine: "m1", Core: 1, Kind: "crash"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(context.Background(), Report{Machine: "m1", Core: 1, Kind: "mce"}); err != nil {
		t.Fatal(err)
	}
	postReport(t, ts.URL, `{"machine":"m1","core":-7}`) // rejected: bad-core

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics -> %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, w := range []string{
		`ceereport_signals_accepted_total{kind="crash"} 1`,
		`ceereport_signals_accepted_total{kind="mce"} 1`,
		`ceereport_reports_rejected_total{reason="bad-core"} 1`,
		`ceereport_reports_total 2`,
		`ceereport_reporting_machines 1`,
		"# TYPE ceereport_signals_accepted_total counter",
	} {
		if !strings.Contains(body, w) {
			t.Fatalf("metrics output missing %q:\n%s", w, body)
		}
	}
}

// TestRejectsCoreOutsideMachine checks that a core the machine does not
// have is refused as bad-core on both handlers, with a message naming the
// range: two reports used to nominate core 9999 of a 64-core machine.
func TestRejectsCoreOutsideMachine(t *testing.T) {
	srv := NewServer(64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		status, e := postReport(t, ts.URL, `{"machine":"m1","core":9999,"kind":"crash"}`)
		if status != http.StatusBadRequest {
			t.Fatalf("POST %d with core 9999 -> %d, want 400", i, status)
		}
		if want := "core must be in [-1, 64) (-1 = unattributed), got 9999"; e.Error != want {
			t.Fatalf("error = %q, want %q", e.Error, want)
		}
	}
	body := `{"reports":[{"machine":"m2","core":3},{"machine":"m2","core":64}]}`
	resp, err := http.Post(ts.URL+"/v1/reports", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch holding core 64 -> %d, want 400", resp.StatusCode)
	}
	if n := srv.TotalReports(); n != 0 {
		t.Fatalf("%d reports ingested, want 0", n)
	}
	if sus := srv.Suspects(); len(sus) != 0 {
		t.Fatalf("suspects = %+v, want none", sus)
	}
}

// flakyTransport fails the first n round trips with a connection-style
// error, then delegates to the default transport.
type flakyTransport struct {
	mu       sync.Mutex
	failures int
	calls    int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.failures
	f.mu.Unlock()
	if fail {
		return nil, errors.New("connection reset by peer")
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestClientRetriesThenSucceeds(t *testing.T) {
	srv := NewServer(8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ft := &flakyTransport{failures: 2}
	var slept []time.Duration
	c := &Client{
		BaseURL:    ts.URL,
		HTTPClient: &http.Client{Transport: ft},
		sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	if err := c.Report(context.Background(), Report{Machine: "m1", Core: 0, Kind: "crash"}); err != nil {
		t.Fatalf("report after retries: %v", err)
	}
	if srv.TotalReports() != 1 {
		t.Fatalf("server saw %d reports", srv.TotalReports())
	}
	if ft.calls != 3 {
		t.Fatalf("transport called %d times, want 3", ft.calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (between 3 attempts)", len(slept))
	}
	// Jittered exponential backoff: each delay within (base/2, base],
	// doubling per retry.
	base := defaultRetryBackoff
	for i, d := range slept {
		lo, hi := base/2, base
		if d < lo || d > hi {
			t.Fatalf("backoff %d = %v outside (%v, %v]", i, d, lo, hi)
		}
		base *= 2
	}
}

func TestClientRetryExhaustion(t *testing.T) {
	ft := &flakyTransport{failures: 1 << 30}
	c := &Client{
		BaseURL:    "http://example.invalid",
		HTTPClient: &http.Client{Transport: ft},
		sleep:      func(time.Duration) {},
	}
	err := c.Report(context.Background(), Report{Machine: "m"})
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if ft.calls != defaultMaxAttempts {
		t.Fatalf("transport called %d times, want %d", ft.calls, defaultMaxAttempts)
	}
	if !strings.Contains(err.Error(), "attempt") {
		t.Fatalf("error %q does not mention attempts", err)
	}
}

func TestClientTimeoutAgainstStalledHandler(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the request open until the test ends
	}))
	defer stalled.Close()
	defer close(release)

	c := &Client{
		BaseURL:     stalled.URL,
		HTTPClient:  &http.Client{Timeout: 50 * time.Millisecond},
		MaxAttempts: 1,
	}
	start := time.Now()
	err := c.Report(context.Background(), Report{Machine: "m", Core: 0, Kind: "crash"})
	if err == nil {
		t.Fatal("stalled server did not time the client out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v; client is not bounding stalled servers", elapsed)
	}
}

func TestDefaultClientHasTimeout(t *testing.T) {
	c := &Client{}
	if got := c.client().Timeout; got != defaultClientTimeout {
		t.Fatalf("default client timeout = %v, want %v", got, defaultClientTimeout)
	}
}

func TestServerForget(t *testing.T) {
	srv := NewServer(16)
	for i := 0; i < 5; i++ {
		srv.Ingest(detect.Signal{Machine: "m", Core: 5, Kind: detect.SigScreenFail})
		srv.Ingest(detect.Signal{Machine: "n", Core: 2, Kind: detect.SigScreenFail})
	}
	if len(srv.Suspects()) != 2 {
		t.Fatalf("setup: %d suspects", len(srv.Suspects()))
	}
	srv.ForgetCore("m", 5)
	sus := srv.Suspects()
	if len(sus) != 1 || sus[0].Machine != "n" {
		t.Fatalf("after ForgetCore: %+v", sus)
	}
	srv.Forget("n")
	if len(srv.Suspects()) != 0 {
		t.Fatal("after Forget: suspects remain")
	}
}

// TestClientJitterSeedReproducible pins the fix for the retry-jitter
// source: backoff schedules come from the client's own seeded stream, not
// the package-global math/rand, so a fixed JitterSeed gives a fixed
// schedule and two clients with the same seed sleep identically.
func TestClientJitterSeedReproducible(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		ft := &flakyTransport{failures: 1 << 30}
		var slept []time.Duration
		c := &Client{
			BaseURL:     "http://example.invalid",
			HTTPClient:  &http.Client{Transport: ft},
			MaxAttempts: 5,
			JitterSeed:  seed,
			sleep:       func(d time.Duration) { slept = append(slept, d) },
		}
		if err := c.Report(context.Background(), Report{Machine: "m"}); err == nil {
			t.Fatal("expected exhaustion error")
		}
		return slept
	}

	a, b := schedule(1234), schedule(1234)
	if len(a) != 4 {
		t.Fatalf("slept %d times, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
	other := schedule(5678)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 1234 and 5678 produced identical schedules %v", a)
	}
	// Every delay still honors the jittered-exponential envelope.
	base := defaultRetryBackoff
	for i, d := range a {
		if d < base/2 || d > base {
			t.Fatalf("backoff %d = %v outside (%v, %v]", i, d, base/2, base)
		}
		base *= 2
	}
}

// TestClientJitterConcurrentRetries exercises the locked jitter source from
// concurrent calls on one client (run under -race).
func TestClientJitterConcurrentRetries(t *testing.T) {
	c := &Client{
		BaseURL:    "http://example.invalid",
		JitterSeed: 9,
		HTTPClient: &http.Client{Transport: &flakyTransport{failures: 1 << 30}},
		sleep:      func(time.Duration) {},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := c.Report(context.Background(), Report{Machine: "m"}); err == nil {
					t.Error("expected exhaustion error")
					return
				}
			}
		}()
	}
	wg.Wait()
}
