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
	"slices"
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
	Core    int     `json:"core"` // in [0, cores per machine), or -1 when unattributed
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
	// The wire names are the kinds' own names.
	for _, k := range []detect.SignalKind{detect.SigCrash, detect.SigMCE, detect.SigSanitizer,
		detect.SigAppError, detect.SigScreenFail, detect.SigUserReport} {
		if k.String() == s {
			return k, true
		}
	}
	return detect.SigAppError, false
}

// Server is the suspect-report collection service. Ingest scales across
// concurrent producers: the tracker is sharded by machine hash, the
// report total is atomic, and the only remaining serialization point is
// the optional OnSignal callback.
type Server struct {
	tracker *detect.ShardedTracker
	total   atomic.Int64
	reg     *obs.Registry
	// cores is the machine shape: a report's core must lie in [-1, cores).
	cores int
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
		cores:   coresPerMachine,
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

// accepted counts n accepted signals of one kind.
func (s *Server) accepted(kind detect.SignalKind, n int) {
	s.reg.Counter("ceereport_signals_accepted_total", obs.L("kind", kind.String())).Add(float64(n))
}

// rejected counts one rejected /v1/report request by reason.
func (s *Server) rejected(reason string) {
	s.reg.Counter("ceereport_reports_rejected_total", obs.L("reason", reason)).Inc()
}

// Handler returns the HTTP handler exposing the service API, every route
// from the one table below; GET routes also answer HEAD, and the admin
// routes (see admin.go) exist only when SetLifecycle was called. Report
// and batch bodies are capped at 64 KiB and 1 MiB; /v1/readyz answers 503
// with its JSON detail when degraded. Every error response carries the
// JSON envelope {"error":"..."} with the matching HTTP status code: 400
// for a malformed body, trailing data after it, or an incomplete report;
// 404 for an unknown path; 405 for a wrong method on a known one; 413 for
// an oversized body; 429 + Retry-After when load is shed.
func (s *Server) Handler() http.Handler {
	routes := []struct {
		method, path string
		h            http.HandlerFunc
		admin        bool // registered only with a lifecycle attached
	}{
		{http.MethodPost, "/v1/report", s.handleReport, false},
		{http.MethodPost, "/v1/reports", s.handleReports, false},
		{http.MethodGet, "/v1/suspects", s.handleSuspects, false},
		{http.MethodGet, "/v1/stats", s.handleStats, false},
		{http.MethodGet, "/v1/healthz", s.handleHealthz, false},
		{http.MethodGet, "/v1/readyz", s.handleReadyz, false},
		{http.MethodGet, "/v1/metrics", s.handleMetrics, false},
		{http.MethodGet, "/v1/machines", s.handleMachineList, true},
		{http.MethodGet, "/v1/machines/{id}", s.handleMachineGet, true},
		{http.MethodPost, "/v1/machines/{id}/{verb}", s.handleMachineVerb, true},
		{http.MethodGet, "/v1/pools", s.handlePools, true},
	}
	mux := http.NewServeMux()
	for _, rt := range routes {
		if rt.admin && s.life == nil {
			continue
		}
		mux.HandleFunc(rt.method+" "+rt.path, rt.h)
		// The method-less pattern catches every other method on the path
		// (the method pattern is more specific and wins). A wrong method
		// on an ingest route counts as a rejected report.
		method, ingest := rt.method, rt.method == http.MethodPost && !rt.admin
		mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) {
			if ingest {
				s.rejected("method")
			}
			writeError(w, http.StatusMethodNotAllowed, "%s required", method)
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no route for %s", r.URL.Path)
	})
	return mux
}

// decodeBody decodes r's body into v as exactly one JSON value. It reads
// at most limit bytes, so an unbounded (or lying Content-Length) request
// cannot buffer arbitrary bytes in memory, and it reads straight from the
// body: every ingested batch passes through here. An empty body leaves v
// zero when emptyOK. On failure it writes the error envelope (413 past
// the cap, 400 for malformed input or data after the value) and returns
// the rejection reason for the caller's metrics; "" means v holds the
// body.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any, emptyOK bool) (reason string) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == io.EOF && emptyOK:
		return ""
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, limit)
		return "too-large"
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad %s: %v", what, err)
		return "malformed"
	}
	// Reject trailing JSON values or garbage after the object — silently
	// ignoring it would mask client framing bugs.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "trailing data after %s object", what)
		return "trailing"
	}
	return ""
}

// writeError sends the API's uniform JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSONStatus(w, status, ErrorJSON{Error: fmt.Sprintf(format, args...)})
}

// writeJSONStatus sends v as a JSON body with an explicit status code,
// or a 500 error envelope if v does not encode.
func writeJSONStatus(w http.ResponseWriter, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		status, body = http.StatusInternalServerError, []byte(`{"error":"response does not encode as JSON"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	io.WriteString(w, "\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSONStatus(w, http.StatusOK, HealthJSON{Status: "ok"})
}

// handleReadyz is GET /v1/readyz: 200 when the daemon can durably accept
// reports, 503 with the failing detail otherwise. Distinct from healthz —
// a load balancer should stop routing to a daemon whose WAL append path
// is broken even though the process itself is fine.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
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
	status := http.StatusOK
	if (ready.WAL.Enabled && !ready.WAL.Healthy) || ready.Queue.Saturated {
		ready.Status, status = "degraded", http.StatusServiceUnavailable
	}
	writeJSONStatus(w, status, ready)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var rep Report
	if reason := decodeBody(w, r, maxReportBytes, "report", &rep, false); reason != "" {
		s.rejected(reason)
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
	if rep.Core < -1 || rep.Core >= s.cores {
		return sig, "bad-core",
			fmt.Sprintf("core must be in [-1, %d) (-1 = unattributed), got %d", s.cores, rep.Core)
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
	s.accepted(sig.Kind, 1)
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
	// One counter lookup per run of equal kinds: series are still
	// registered in first-seen order, and the sums stay exact integers.
	run := 0
	for i := 1; i <= len(sigs); i++ {
		if i == len(sigs) || sigs[i].Kind != sigs[run].Kind {
			s.accepted(sigs[run].Kind, i-run)
			run = i
		}
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
	sus := s.Suspects()
	out := make([]SuspectJSON, len(sus))
	for i, x := range sus {
		out[i] = SuspectJSON{
			Machine: x.Machine, Core: x.Core, Reports: x.Reports,
			PValue: x.PValue, Score: x.Score(),
		}
	}
	writeJSONStatus(w, http.StatusOK, out)
}

// ReportingMachines returns the number of distinct machines that have
// ever submitted a report — including machines whose reports never
// concentrated into a nomination.
func (s *Server) ReportingMachines() int {
	return s.tracker.ReportingMachines()
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Machines counts every distinct reporting machine, not just those
	// with a current nomination — a fleet of one-report machines is load
	// the operator needs to see even though it nominates nothing.
	writeJSONStatus(w, http.StatusOK, StatsJSON{
		TotalReports: s.TotalReports(),
		Machines:     s.ReportingMachines(),
		Suspects:     len(s.Suspects()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
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

// Client default retry/timeout policy.
const (
	defaultClientTimeout = 5 * time.Second
	defaultMaxAttempts   = 3
	defaultRetryBackoff  = 50 * time.Millisecond
	// defaultMaxRetryAfter caps how much of a server Retry-After hint is
	// honored, so a hostile or misconfigured server cannot park clients
	// indefinitely.
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

// ErrShed is wrapped by a call whose last attempt the server refused with
// backpressure (429 or 503): the server was up and shed the load. A call
// that last failed in transport (connection refused, reset, timeout)
// does not wrap it.
var ErrShed = errors.New("shed by server")

// Client talks to a report server over HTTP. Transport-level failures
// (connection refused, resets, timeouts) and explicit backpressure
// responses (429, 503) are retried with jittered exponential backoff up
// to MaxAttempts, honoring the server's Retry-After hint (capped at 5s);
// other HTTP status errors are not retried — the request was delivered
// and answered. Every call takes a context that bounds its requests and
// retry sleeps, except the ReportBatch and Suspects shorthands, which
// use context.Background.
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

// retryAfter parses a Retry-After header (delta-seconds form) capped at
// defaultMaxRetryAfter; 0 when absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return min(time.Duration(secs)*time.Second, defaultMaxRetryAfter)
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
		// 429 and 503 are explicit backpressure: the request may not have
		// been acted on, so it is worth retrying.
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			serverHint = retryAfter(resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("%w: server returned %s", ErrShed, resp.Status)
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("report: %d attempt(s) failed: %w", attempts, lastErr)
}

// send issues one request, with body (nil for none) as its JSON payload.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.client().Do(req)
}

// call runs one API call under the retry policy: it sends in (unless
// nil) as the JSON body, fails unless the answer's status is one of ok,
// and decodes the answer into out (unless nil). what prefixes the error.
func (c *Client) call(ctx context.Context, what, method, path string, in, out any, ok ...int) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	resp, err := c.do(ctx, func(ctx context.Context) (*http.Response, error) {
		return c.send(ctx, method, path, body)
	})
	if err != nil {
		return err
	}
	return answer(resp, what, out, ok...)
}

// answer checks resp's status against ok, decodes its body into out
// unless out is nil, and closes it.
func answer(resp *http.Response, what string, out any, ok ...int) error {
	defer resp.Body.Close()
	if !slices.Contains(ok, resp.StatusCode) {
		return fmt.Errorf("%s: server returned %s", what, apiError(resp))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Report submits one suspect-core report.
func (c *Client) Report(ctx context.Context, rep Report) error {
	return c.call(ctx, "report", http.MethodPost, "/v1/report", rep, nil, http.StatusAccepted)
}

// ReportBatch submits a batch of reports via POST /v1/reports.
func (c *Client) ReportBatch(batch Batch) (BatchAck, error) {
	return c.ReportBatchContext(context.Background(), batch)
}

// ReportBatchContext submits a batch of reports, honoring ctx. A shed
// (429) response is retried per the client's policy; if every attempt is
// shed the returned error wraps ErrShed and the last status.
func (c *Client) ReportBatchContext(ctx context.Context, batch Batch) (BatchAck, error) {
	var ack BatchAck
	err := c.call(ctx, "reports", http.MethodPost, "/v1/reports", batch, &ack,
		http.StatusAccepted, http.StatusOK)
	return ack, err
}

// Suspects fetches the current suspect list.
func (c *Client) Suspects() ([]SuspectJSON, error) {
	return c.SuspectsContext(context.Background())
}

// SuspectsContext fetches the current suspect list, honoring ctx.
func (c *Client) SuspectsContext(ctx context.Context) ([]SuspectJSON, error) {
	var out []SuspectJSON
	err := c.call(ctx, "suspects", http.MethodGet, "/v1/suspects", nil, &out, http.StatusOK)
	return out, err
}

// Stats fetches service statistics.
func (c *Client) Stats(ctx context.Context) (StatsJSON, error) {
	var out StatsJSON
	err := c.call(ctx, "stats", http.MethodGet, "/v1/stats", nil, &out, http.StatusOK)
	return out, err
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
	var out []MachineJSON
	err := c.call(ctx, "machines", http.MethodGet, path, nil, &out, http.StatusOK)
	return out, err
}

// Machine fetches one machine's lifecycle record.
func (c *Client) Machine(ctx context.Context, id string) (MachineJSON, error) {
	var out MachineJSON
	err := c.call(ctx, "machine "+id, http.MethodGet, "/v1/machines/"+id, nil, &out, http.StatusOK)
	return out, err
}

// MachineAction invokes one lifecycle verb (cordon, drain, repair,
// release, remove, assign) on a machine and returns the updated record.
// A 202 answer (verb deferred behind a pool floor) is success; the
// returned record has Deferred set.
func (c *Client) MachineAction(ctx context.Context, id, verb string, req ActionRequest) (MachineJSON, error) {
	var out MachineJSON
	err := c.call(ctx, verb+" "+id, http.MethodPost, "/v1/machines/"+id+"/"+verb, req, &out,
		http.StatusOK, http.StatusAccepted)
	return out, err
}

// Pools fetches per-pool capacity accounting and the deferred-drain
// queue from the admin API.
func (c *Client) Pools(ctx context.Context) (PoolsJSON, error) {
	var out PoolsJSON
	err := c.call(ctx, "pools", http.MethodGet, "/v1/pools", nil, &out, http.StatusOK)
	return out, err
}

// Readyz probes /v1/readyz once, without retry — a readiness probe that
// retried its own 503s would defeat its purpose. The parsed body comes
// back for both 200 and 503; ready reports which it was.
func (c *Client) Readyz(ctx context.Context) (out ReadyJSON, ready bool, err error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/readyz", nil)
	if err != nil {
		return out, false, err
	}
	err = answer(resp, "readyz", &out, http.StatusOK, http.StatusServiceUnavailable)
	return out, err == nil && resp.StatusCode == http.StatusOK, err
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
