// Package report implements §6's "simple RPC service that allows an
// application to report a suspect core or CPU": an HTTP+JSON server that
// feeds a detect.Tracker, plus the matching client used by applications
// and infrastructure daemons.
package report

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/detect"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// maxReportBytes caps a POST /v1/report body. A Report is a few hundred
// bytes; 64 KiB leaves generous room for Detail while preventing an
// unbounded body from exhausting server memory.
const maxReportBytes = 64 << 10

// Report is the wire form of one suspect-core report.
type Report struct {
	Machine string  `json:"machine"`
	Core    int     `json:"core"` // -1 when unattributed
	Kind    string  `json:"kind"`
	Detail  string  `json:"detail,omitempty"`
	TimeSec float64 `json:"time_sec"`
}

// SuspectJSON is the wire form of one nominated suspect.
type SuspectJSON struct {
	Machine string  `json:"machine"`
	Core    int     `json:"core"`
	Reports int     `json:"reports"`
	PValue  float64 `json:"p_value"`
	Score   float64 `json:"score"`
}

// StatsJSON summarizes the service state.
type StatsJSON struct {
	TotalReports int `json:"total_reports"`
	Machines     int `json:"machines"`
	Suspects     int `json:"suspects"`
}

// ErrorJSON is the error envelope every non-2xx API response carries.
type ErrorJSON struct {
	Error string `json:"error"`
}

// HealthJSON is the /v1/healthz response body.
type HealthJSON struct {
	Status string `json:"status"`
}

// ReadyJSON is the /v1/readyz response body. Liveness (healthz) answers
// "is the process up"; readiness answers "can it durably accept work":
// a daemon whose WAL is failing appends, or whose ingest queue is full
// and shedding, is alive but not ready.
type ReadyJSON struct {
	Status string     `json:"status"` // "ok" or "degraded"
	WAL    ReadyWAL   `json:"wal"`
	Queue  ReadyQueue `json:"queue"`
}

// ReadyWAL is the WAL-writability leg of the readiness answer.
type ReadyWAL struct {
	Enabled bool   `json:"enabled"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// ReadyQueue is the ingest-queue-saturation leg of the readiness answer.
type ReadyQueue struct {
	Enabled   bool `json:"enabled"`
	Depth     int  `json:"depth"`
	Capacity  int  `json:"capacity"`
	Saturated bool `json:"saturated"`
}

// kindFromString maps wire kinds to detect.SignalKind. Unknown kinds map
// to SigAppError so that forward-compatible clients degrade gracefully,
// but known is false so the server can count the coercion — a fleet of
// new-version clients emitting a kind this server predates should be
// visible in metrics, not silently folded into app-error.
func kindFromString(s string) (kind detect.SignalKind, known bool) {
	switch s {
	case "crash":
		return detect.SigCrash, true
	case "mce":
		return detect.SigMCE, true
	case "sanitizer":
		return detect.SigSanitizer, true
	case "app-error":
		return detect.SigAppError, true
	case "screen-fail":
		return detect.SigScreenFail, true
	case "user-report":
		return detect.SigUserReport, true
	default:
		return detect.SigAppError, false
	}
}

// Server is the suspect-report collection service. Ingest scales across
// concurrent producers: the tracker is sharded by machine hash, the
// report total is atomic, and the only remaining serialization point is
// the optional OnSignal callback.
type Server struct {
	tracker *detect.ShardedTracker
	total   atomic.Int64
	reg     *obs.Registry
	// OnSignal, if non-nil, observes every accepted signal (used by the
	// fleet simulator to couple the service to its detection loop). Set it
	// before the server accepts traffic; invocations are serialized.
	OnSignal func(detect.Signal)
	// cbMu serializes OnSignal across concurrent ingest paths.
	cbMu sync.Mutex

	// RetryAfterSec is the Retry-After hint, in seconds, attached to shed
	// (429) responses. 0 means 1 second. Set before accepting traffic.
	RetryAfterSec int

	// dedup is the (source, seq) batch idempotency window.
	dedup dedupWindow
	// queue, when non-nil, defers batch ingest to a background drainer
	// with explicit load shedding. See EnableQueue.
	queue *ingestQueue

	// life, when non-nil, is the machine-lifecycle control plane exposed
	// under /v1/machines. See SetLifecycle.
	life *lifecycle.Manager
}

// NewServer returns a server feeding a tracker shaped for machines with
// coresPerMachine cores. The server owns a metrics registry (exposed at
// GET /v1/metrics and via Metrics) counting accepted signals by kind and
// rejected requests by reason.
func NewServer(coresPerMachine int) *Server {
	return &Server{
		tracker: detect.NewShardedTracker(coresPerMachine, 0),
		reg:     obs.NewRegistry(),
	}
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SetMetrics replaces the server's registry with a shared one — the fleet
// simulator uses this to aggregate the whole stack's metrics in a single
// registry. Must be called before the server starts accepting traffic.
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg != nil {
		s.reg = reg
	}
}

// accepted counts one accepted signal by kind.
func (s *Server) accepted(kind detect.SignalKind) {
	s.reg.Counter("ceereport_signals_accepted_total", obs.L("kind", kind.String())).Inc()
}

// rejected counts one rejected /v1/report request by reason.
func (s *Server) rejected(reason string) {
	s.reg.Counter("ceereport_reports_rejected_total", obs.L("reason", reason)).Inc()
}

// Handler returns the HTTP handler exposing the service API:
//
//	POST /v1/report   — submit one Report (body capped at 64 KiB)
//	POST /v1/reports  — submit a Batch (body capped at 1 MiB); may answer
//	                    429 + Retry-After under overload
//	GET  /v1/suspects — list nominated suspects
//	GET  /v1/stats    — service statistics
//	GET  /v1/healthz  — liveness probe, {"status":"ok"}
//	GET  /v1/readyz   — readiness probe: WAL writability and ingest-queue
//	     saturation; 503 with JSON detail when degraded
//	GET  /v1/metrics  — Prometheus text exposition of the service metrics
//	     /v1/machines — lifecycle admin API (only when SetLifecycle was
//	                    called; see admin.go)
//
// Every error response carries the JSON envelope {"error":"..."} with the
// matching HTTP status code (400 for malformed or incomplete reports, 405
// for a wrong method, 413 for an oversized body, 429 when load is shed).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/reports", s.handleReports)
	mux.HandleFunc("/v1/suspects", s.handleSuspects)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	if s.life != nil {
		s.registerAdmin(mux)
	}
	return mux
}

// writeError sends the API's uniform JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, HealthJSON{Status: "ok"})
}

// handleReadyz is GET /v1/readyz: 200 when the daemon can durably accept
// reports, 503 with the failing detail otherwise. Distinct from healthz —
// a load balancer should stop routing to a daemon whose WAL append path
// is broken even though the process itself is fine.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ready := ReadyJSON{Status: "ok"}
	if s.life != nil && s.life.HasWAL() {
		ready.WAL.Enabled = true
		if err := s.life.WALHealth(); err != nil {
			ready.WAL.Error = err.Error()
		} else {
			ready.WAL.Healthy = true
		}
	}
	if cap := s.QueueCapacity(); cap > 0 {
		ready.Queue.Enabled = true
		ready.Queue.Capacity = cap
		ready.Queue.Depth = s.QueueDepth()
		ready.Queue.Saturated = ready.Queue.Depth >= cap
	}
	if (ready.WAL.Enabled && !ready.WAL.Healthy) || ready.Queue.Saturated {
		ready.Status = "degraded"
		writeJSONStatus(w, http.StatusServiceUnavailable, ready)
		return
	}
	writeJSON(w, ready)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.rejected("method")
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Bound the body before touching it: an unbounded (or lying
	// Content-Length) request must not buffer arbitrary bytes in memory.
	body := http.MaxBytesReader(w, r.Body, maxReportBytes)
	dec := json.NewDecoder(body)
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.rejected("too-large")
			writeError(w, http.StatusRequestEntityTooLarge,
				"report exceeds %d bytes", maxReportBytes)
			return
		}
		s.rejected("malformed")
		writeError(w, http.StatusBadRequest, "bad report: %v", err)
		return
	}
	// Reject trailing JSON values or garbage after the report object —
	// silently ignoring it would mask client framing bugs.
	if _, err := dec.Token(); err != io.EOF {
		s.rejected("trailing")
		writeError(w, http.StatusBadRequest, "trailing data after report object")
		return
	}
	sig, reason, msg := s.signalFromReport(rep)
	if reason != "" {
		s.rejected(reason)
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	s.Ingest(sig)
	w.WriteHeader(http.StatusAccepted)
}

// signalFromReport validates one wire report and converts it to a signal.
// On rejection, reason is the metrics label and msg the client-facing
// explanation — shared by the single-report and batch handlers so both
// enforce the identical contract.
func (s *Server) signalFromReport(rep Report) (sig detect.Signal, reason, msg string) {
	if rep.Machine == "" {
		return sig, "missing-machine", "machine required"
	}
	if rep.Core < -1 {
		return sig, "bad-core",
			fmt.Sprintf("core must be >= -1 (-1 = unattributed), got %d", rep.Core)
	}
	kind, known := kindFromString(rep.Kind)
	if !known {
		s.reg.Counter("ceereport_signals_unknown_kind_total").Inc()
	}
	return detect.Signal{
		Machine: rep.Machine,
		Core:    rep.Core,
		Kind:    kind,
		Time:    simtime.Time(rep.TimeSec),
		Detail:  rep.Detail,
	}, "", ""
}

// notify serializes OnSignal invocations for a buffer of accepted signals.
func (s *Server) notify(sigs []detect.Signal) {
	cb := s.OnSignal
	if cb == nil {
		return
	}
	s.cbMu.Lock()
	defer s.cbMu.Unlock()
	for _, sig := range sigs {
		cb(sig)
	}
}

// Ingest adds a signal directly (the in-process path used by simulators;
// the HTTP path funnels here too).
func (s *Server) Ingest(sig detect.Signal) {
	s.tracker.Add(sig)
	s.total.Add(1)
	s.accepted(sig.Kind)
	s.notify([]detect.Signal{sig})
}

// IngestBatch adds a buffer of signals, grouped by tracker shard — the
// merge path for producers (parallel fleet shards, the ingest queue) that
// accumulate signals privately and hand them over in deterministic order.
func (s *Server) IngestBatch(sigs []detect.Signal) {
	if len(sigs) == 0 {
		return
	}
	s.tracker.AddBatch(sigs)
	s.total.Add(int64(len(sigs)))
	for _, sig := range sigs {
		s.accepted(sig.Kind)
	}
	s.notify(sigs)
}

// Suspects returns the current nominations.
func (s *Server) Suspects() []detect.Suspect {
	return s.tracker.Suspects()
}

// Forget drops tracker state for a machine (after drain/repair).
func (s *Server) Forget(machine string) {
	s.tracker.Forget(machine)
}

// ForgetCore drops tracker state for one core (after quarantine).
func (s *Server) ForgetCore(machine string, core int) {
	s.tracker.ForgetCore(machine, core)
}

// TotalReports returns the number of accepted reports.
func (s *Server) TotalReports() int {
	return int(s.total.Load())
}

func (s *Server) handleSuspects(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	sus := s.Suspects()
	out := make([]SuspectJSON, len(sus))
	for i, x := range sus {
		out[i] = SuspectJSON{
			Machine: x.Machine, Core: x.Core, Reports: x.Reports,
			PValue: x.PValue, Score: x.Score(),
		}
	}
	writeJSON(w, out)
}

// ReportingMachines returns the number of distinct machines that have
// ever submitted a report — including machines whose reports never
// concentrated into a nomination.
func (s *Server) ReportingMachines() int {
	return s.tracker.ReportingMachines()
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// Machines counts every distinct reporting machine, not just those
	// with a current nomination — a fleet of one-report machines is load
	// the operator needs to see even though it nominates nothing.
	writeJSON(w, StatsJSON{
		TotalReports: s.TotalReports(),
		Machines:     s.ReportingMachines(),
		Suspects:     len(s.Suspects()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// Refresh the scrape-time gauges before rendering.
	total := s.TotalReports()
	machines := s.ReportingMachines()
	suspects := len(s.Suspects())
	s.reg.Gauge("ceereport_reports_total").Set(float64(total))
	s.reg.Gauge("ceereport_reporting_machines").Set(float64(machines))
	s.reg.Gauge("ceereport_suspects").Set(float64(suspects))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Client default retry/timeout policy.
const (
	defaultClientTimeout = 5 * time.Second
	defaultMaxAttempts   = 3
	defaultRetryBackoff  = 50 * time.Millisecond
	defaultMaxRetryAfter = 5 * time.Second
	// maxRetryBackoff caps the exponential retry delay: past this point
	// more waiting is just unavailability, not politeness.
	maxRetryBackoff = 30 * time.Second
)

// defaultHTTPClient bounds every call a zero-value Client makes. The old
// fallback to http.DefaultClient had no timeout, so a hung ceereportd
// blocked reporters forever — exactly the coupling a suspect-report path
// must not have to the thing it is reporting about.
var defaultHTTPClient = &http.Client{Timeout: defaultClientTimeout}

// Client talks to a report server over HTTP. Transport-level failures
// (connection refused, resets, timeouts) and explicit backpressure
// responses (429, 503) are retried with jittered exponential backoff up
// to MaxAttempts, honoring the server's Retry-After hint (capped by
// MaxRetryAfter); other HTTP status errors are not retried — the request
// was delivered and answered. Every method has a Context variant that
// threads cancellation and deadlines through requests and retry sleeps.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a shared client with a 5s timeout.
	HTTPClient *http.Client
	// MaxAttempts bounds total tries per call (0 means 3; 1 disables
	// retry).
	MaxAttempts int
	// RetryBackoff is the base delay before the first retry, doubled per
	// further retry with up to 50% random jitter (0 means 50ms).
	RetryBackoff time.Duration
	// MaxRetryAfter caps how much of a server Retry-After hint is
	// honored, so a hostile or misconfigured server cannot park clients
	// indefinitely (0 means 5s).
	MaxRetryAfter time.Duration
	// JitterSeed seeds the client's private retry-jitter stream; 0 (the
	// default) seeds from the clock at first use, so independent clients
	// de-synchronize. Tests set it for reproducible backoff schedules.
	JitterSeed uint64
	// sleep is a test seam; nil means a context-aware timer wait.
	sleep func(time.Duration)

	// jitter is the client's own locked random source. The old code drew
	// from the package-global math/rand, which made retry schedules
	// irreproducible in tests and serialized every retrying client in the
	// process on one global lock. A Client must not be copied after its
	// first retry.
	jitterMu sync.Mutex
	jitter   *xrand.RNG
}

// jitterDelay returns a uniform duration in [0, half] from the client's
// private stream, lazily seeding it on first use.
func (c *Client) jitterDelay(half time.Duration) time.Duration {
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	if c.jitter == nil {
		seed := c.JitterSeed
		if seed == 0 {
			seed = uint64(time.Now().UnixNano())
		}
		c.jitter = xrand.New(seed)
	}
	return time.Duration(c.jitter.Uint64n(uint64(half) + 1))
}

func (c *Client) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// wait sleeps d or returns early with the context's error.
func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		c.sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryableStatus reports whether status is explicit server backpressure
// worth retrying (the request may not have been acted on).
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// retryAfter parses a Retry-After header (delta-seconds form) capped at
// the client's maximum; 0 when absent or unparseable.
func (c *Client) retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	max := c.MaxRetryAfter
	if max <= 0 {
		max = defaultMaxRetryAfter
	}
	if d > max {
		d = max
	}
	return d
}

// do runs send with the client's retry policy. send must build a fresh
// request per call (a consumed body cannot be replayed). Backpressure
// responses (429/503) count as failed attempts; the retry delay is the
// larger of the jittered backoff and the server's Retry-After hint.
func (c *Client) do(ctx context.Context, send func(context.Context) (*http.Response, error)) (*http.Response, error) {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = defaultMaxAttempts
	}
	base := c.RetryBackoff
	if base <= 0 {
		base = defaultRetryBackoff
	}
	var (
		lastErr    error
		serverHint time.Duration
	)
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := backoff.Delay(base, maxRetryBackoff, attempt-1)
			// Full jitter on the top half de-synchronizes a fleet of
			// reporters hammering a recovering server.
			d = d/2 + c.jitterDelay(d/2)
			if serverHint > d {
				d = serverHint
			}
			if err := c.wait(ctx, d); err != nil {
				return nil, fmt.Errorf("report: canceled during retry backoff: %w", err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		resp, err := send(ctx)
		if err != nil {
			lastErr = err
			serverHint = 0
			continue
		}
		if retryableStatus(resp.StatusCode) {
			serverHint = c.retryAfter(resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("server returned %s", resp.Status)
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("report: %d attempt(s) failed: %w", attempts, lastErr)
}

// get issues a retried GET of path.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	return c.do(ctx, func(ctx context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return nil, err
		}
		return c.client().Do(req)
	})
}

// post issues a retried JSON POST of body to path.
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	return c.do(ctx, func(ctx context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return c.client().Do(req)
	})
}

// Report submits one suspect-core report.
func (c *Client) Report(rep Report) error {
	return c.ReportContext(context.Background(), rep)
}

// ReportContext submits one suspect-core report, honoring ctx.
func (c *Client) ReportContext(ctx context.Context, rep Report) error {
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	resp, err := c.post(ctx, "/v1/report", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("report: server returned %s", resp.Status)
	}
	return nil
}

// ReportBatch submits a batch of reports via POST /v1/reports.
func (c *Client) ReportBatch(batch Batch) (BatchAck, error) {
	return c.ReportBatchContext(context.Background(), batch)
}

// ReportBatchContext submits a batch of reports, honoring ctx. A shed
// (429) response is retried per the client's policy; if every attempt is
// shed the returned error wraps the last status.
func (c *Client) ReportBatchContext(ctx context.Context, batch Batch) (BatchAck, error) {
	var ack BatchAck
	body, err := json.Marshal(batch)
	if err != nil {
		return ack, err
	}
	resp, err := c.post(ctx, "/v1/reports", body)
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return ack, fmt.Errorf("reports: server returned %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	return ack, err
}

// Suspects fetches the current suspect list.
func (c *Client) Suspects() ([]SuspectJSON, error) {
	return c.SuspectsContext(context.Background())
}

// SuspectsContext fetches the current suspect list, honoring ctx.
func (c *Client) SuspectsContext(ctx context.Context) ([]SuspectJSON, error) {
	resp, err := c.get(ctx, "/v1/suspects")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("suspects: server returned %s", resp.Status)
	}
	var out []SuspectJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches service statistics.
func (c *Client) Stats() (StatsJSON, error) {
	return c.StatsContext(context.Background())
}

// StatsContext fetches service statistics, honoring ctx.
func (c *Client) StatsContext(ctx context.Context) (StatsJSON, error) {
	var out StatsJSON
	resp, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stats: server returned %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Metrics fetches the server's Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	return c.MetricsContext(context.Background())
}

// MetricsContext fetches the Prometheus exposition, honoring ctx.
func (c *Client) MetricsContext(ctx context.Context) (string, error) {
	resp, err := c.get(ctx, "/v1/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics: server returned %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Machines fetches the lifecycle ledger from the admin API, optionally
// filtered by state and/or pool (empty strings mean no filter).
func (c *Client) Machines(ctx context.Context, state, pool string) ([]MachineJSON, error) {
	q := url.Values{}
	if state != "" {
		q.Set("state", state)
	}
	if pool != "" {
		q.Set("pool", pool)
	}
	path := "/v1/machines"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	resp, err := c.get(ctx, path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("machines: server returned %s", apiError(resp))
	}
	var out []MachineJSON
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Machine fetches one machine's lifecycle record.
func (c *Client) Machine(ctx context.Context, id string) (MachineJSON, error) {
	var out MachineJSON
	resp, err := c.get(ctx, "/v1/machines/"+id)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("machine %s: server returned %s", id, apiError(resp))
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// MachineAction invokes one lifecycle verb (cordon, drain, repair,
// release, remove, assign) on a machine and returns the updated record.
// A 202 answer (verb deferred behind a pool floor) is success; the
// returned record has Deferred set.
func (c *Client) MachineAction(ctx context.Context, id, verb string, req ActionRequest) (MachineJSON, error) {
	var out MachineJSON
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := c.post(ctx, "/v1/machines/"+id+"/"+verb, body)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return out, fmt.Errorf("%s %s: server returned %s", verb, id, apiError(resp))
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Pools fetches per-pool capacity accounting and the deferred-drain
// queue from the admin API.
func (c *Client) Pools(ctx context.Context) (PoolsJSON, error) {
	var out PoolsJSON
	resp, err := c.get(ctx, "/v1/pools")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("pools: server returned %s", apiError(resp))
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Readyz probes /v1/readyz once, without retry — a readiness probe that
// retried its own 503s would defeat its purpose. The parsed body comes
// back for both 200 and 503; ready reports which it was.
func (c *Client) Readyz(ctx context.Context) (out ReadyJSON, ready bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/readyz", nil)
	if err != nil {
		return out, false, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return out, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return out, false, fmt.Errorf("readyz: server returned %s", apiError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, false, err
	}
	return out, resp.StatusCode == http.StatusOK, nil
}

// apiError renders a non-2xx response for error messages, folding in the
// server's JSON error envelope when present.
func apiError(resp *http.Response) string {
	var env ErrorJSON
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&env) == nil && env.Error != "" {
		return fmt.Sprintf("%s (%s)", resp.Status, env.Error)
	}
	return resp.Status
}
