package report

// Overload-hardened batch ingest. Reporters ship buffered signals as one
// POST /v1/reports Batch tagged (source, seq). The server either ingests
// the batch synchronously or, with EnableQueue, parks it on a bounded
// queue drained by a background goroutine. When the queue is full the
// server sheds load explicitly — 429 plus Retry-After — instead of
// buffering without bound; the whole point of the report service is to
// stay up while a fleet-wide CEE incident (or a software bug misread as
// one) floods it with signals. Retries are cheap because delivery is
// idempotent: a (source, seq) pair is ingested at most once, and a
// re-delivery of a batch still sitting in the queue replaces the queued
// copy (drop-oldest-duplicate) rather than consuming more capacity.

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/detect"
	"repro/internal/obs"
)

const (
	// maxBatchBytes caps a POST /v1/reports body.
	maxBatchBytes = 1 << 20
	// DefaultQueueCapacity is the ingest-queue size, in signals, that
	// EnableQueue uses when the caller passes 0.
	DefaultQueueCapacity = 65536
	// dedupSeqWindow is how many sequence numbers per source the
	// idempotency window remembers. Seqs older than maxSeq-window are
	// treated as duplicates: a reporter that far behind has long since
	// given up on those batches, and remembering every seq forever would
	// grow without bound.
	dedupSeqWindow = 1024
	// defaultRetryAfterSec is the Retry-After hint on shed responses.
	defaultRetryAfterSec = 1
)

// Batch is the wire form of POST /v1/reports: a buffer of reports tagged
// with the reporter's identity and a per-source sequence number. Source
// and Seq are optional; when either is zero the batch bypasses the
// idempotency window (every delivery ingests).
type Batch struct {
	Source  string   `json:"source,omitempty"`
	Seq     uint64   `json:"seq,omitempty"`
	Reports []Report `json:"reports"`
}

// BatchAck is the success body for POST /v1/reports.
type BatchAck struct {
	// Status is "accepted" (ingested synchronously), "deferred" (queued),
	// "replaced" (superseded a queued copy of the same batch), or
	// "duplicate" (already ingested; nothing to do).
	Status string `json:"status"`
	// Accepted is the number of reports taken from this delivery.
	Accepted int `json:"accepted"`
}

// batchKey identifies one batch for idempotency.
type batchKey struct {
	source string
	seq    uint64
}

func (k batchKey) tracked() bool { return k.source != "" && k.seq != 0 }

// dedupWindow remembers recently ingested (source, seq) pairs. The
// zero value is ready to use.
type dedupWindow struct {
	mu      sync.Mutex
	sources map[string]*sourceWindow
}

type sourceWindow struct {
	maxSeq uint64
	seen   map[uint64]struct{}
}

// seen reports whether key was already accepted (or is too old to tell).
func (d *dedupWindow) isDup(key batchKey) bool {
	if !key.tracked() {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.sources[key.source]
	if w == nil {
		return false
	}
	if w.maxSeq > dedupSeqWindow && key.seq <= w.maxSeq-dedupSeqWindow {
		return true
	}
	_, ok := w.seen[key.seq]
	return ok
}

// mark records key as accepted. Call only after isDup returned false and
// the batch was committed (queued or ingested) — a shed batch must stay
// unmarked so its retry is not mistaken for a duplicate.
func (d *dedupWindow) mark(key batchKey) {
	if !key.tracked() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sources == nil {
		d.sources = map[string]*sourceWindow{}
	}
	w := d.sources[key.source]
	if w == nil {
		w = &sourceWindow{seen: map[uint64]struct{}{}}
		d.sources[key.source] = w
	}
	w.seen[key.seq] = struct{}{}
	if key.seq > w.maxSeq {
		w.maxSeq = key.seq
	}
	if len(w.seen) > dedupSeqWindow {
		for s := range w.seen {
			if w.maxSeq > dedupSeqWindow && s <= w.maxSeq-dedupSeqWindow {
				delete(w.seen, s)
			}
		}
	}
}

// queuedBatch is one parked batch.
type queuedBatch struct {
	key  batchKey
	sigs []detect.Signal
}

// ingestQueue is the bounded buffer between the HTTP handlers and the
// tracker, drained FIFO by one background goroutine.
type ingestQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int // in signals
	depth    int // queued signals
	buf      []queuedBatch
	base     uint64              // absolute index of buf[0]
	index    map[batchKey]uint64 // absolute position of each tracked queued batch
	closed   bool
	done     chan struct{}
}

func newIngestQueue(capacity int) *ingestQueue {
	q := &ingestQueue{
		capacity: capacity,
		index:    map[batchKey]uint64{},
		done:     make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// offer decides one delivery's fate under a single lock: replace a queued
// duplicate, reject an already-ingested duplicate, shed on overflow, or
// enqueue. Returns the BatchAck status ("shed" meaning rejected).
func (q *ingestQueue) offer(key batchKey, sigs []detect.Signal, dedup *dedupWindow) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "shed"
	}
	if key.tracked() {
		if pos, ok := q.index[key]; ok {
			// Drop-oldest-duplicate: the retry supersedes the queued copy
			// without consuming more capacity.
			i := pos - q.base
			q.depth += len(sigs) - len(q.buf[i].sigs)
			q.buf[i].sigs = sigs
			return "replaced"
		}
		if dedup.isDup(key) {
			return "duplicate"
		}
	}
	if q.depth+len(sigs) > q.capacity {
		return "shed"
	}
	dedup.mark(key)
	q.buf = append(q.buf, queuedBatch{key: key, sigs: sigs})
	if key.tracked() {
		q.index[key] = q.base + uint64(len(q.buf)) - 1
	}
	q.depth += len(sigs)
	q.cond.Signal()
	return "deferred"
}

// run drains the queue into the server until Close. It is the only
// consumer, so batches reach the tracker in arrival order.
func (q *ingestQueue) run(s *Server) {
	defer close(q.done)
	for {
		q.mu.Lock()
		for len(q.buf) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.buf) == 0 {
			q.mu.Unlock()
			return
		}
		b := q.buf[0]
		q.buf[0] = queuedBatch{} // release the popped batch for GC
		q.buf = q.buf[1:]
		q.base++
		if b.key.tracked() {
			delete(q.index, b.key)
		}
		q.depth -= len(b.sigs)
		depth := q.depth
		q.mu.Unlock()
		s.reg.Gauge("ceereport_queue_depth").Set(float64(depth))
		s.IngestBatch(b.sigs)
	}
}

// close stops intake, lets the drainer finish the backlog, and waits.
func (q *ingestQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	<-q.done
}

// QueueDepth returns the number of queued signals (0 without a queue).
func (s *Server) QueueDepth() int {
	if s.queue == nil {
		return 0
	}
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	return s.queue.depth
}

// EnableQueue switches POST /v1/reports from synchronous ingest to a
// bounded background queue of the given capacity (in signals; 0 means
// DefaultQueueCapacity) and starts the drainer. Call before the server
// accepts traffic, and Close on shutdown to flush the backlog.
func (s *Server) EnableQueue(capacity int) {
	if capacity <= 0 {
		capacity = DefaultQueueCapacity
	}
	s.queue = newIngestQueue(capacity)
	go s.queue.run(s)
}

// Close flushes and stops the ingest queue, if any. The server must not
// receive further traffic after Close.
func (s *Server) Close() {
	if s.queue != nil {
		s.queue.close()
	}
}

// QueueCapacity returns the queue's capacity in signals (0 without a
// queue). Capacity is fixed at EnableQueue time.
func (s *Server) QueueCapacity() int {
	if s.queue == nil {
		return 0
	}
	return s.queue.capacity
}

// retryAfterSec is the Retry-After hint attached to shed responses.
func (s *Server) retryAfterSec() int {
	if s.RetryAfterSec > 0 {
		return s.RetryAfterSec
	}
	return defaultRetryAfterSec
}

// handleReports is POST /v1/reports: decode, validate every report with
// the single-report rules, then commit the whole batch atomically —
// queue it, ingest it, or shed it. Partial batches never happen; a 4xx
// means nothing was taken, a 2xx means the entire batch was.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	var batch Batch
	if reason := decodeBody(w, r, maxBatchBytes, "batch", &batch, false); reason != "" {
		s.rejected(reason)
		return
	}
	if len(batch.Reports) == 0 {
		s.rejected("empty-batch")
		writeError(w, http.StatusBadRequest, "reports required")
		return
	}
	sigs := make([]detect.Signal, 0, len(batch.Reports))
	for i, rep := range batch.Reports {
		sig, reason, msg := s.signalFromReport(rep)
		if reason != "" {
			s.rejected(reason)
			writeError(w, http.StatusBadRequest, "report %d: %s", i, msg)
			return
		}
		sigs = append(sigs, sig)
	}
	key := batchKey{source: batch.Source, seq: batch.Seq}

	status := "accepted"
	if s.queue != nil {
		status = s.queue.offer(key, sigs, &s.dedup)
	} else if s.dedup.isDup(key) {
		status = "duplicate"
	} else {
		s.dedup.mark(key)
		s.IngestBatch(sigs)
	}
	s.reg.Counter("ceereport_batches_total", obs.L("result", status)).Inc()

	switch status {
	case "shed":
		s.reg.Counter("ceereport_signals_shed_total").Add(float64(len(sigs)))
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSec()))
		writeError(w, http.StatusTooManyRequests,
			"ingest queue full; retry after %ds", s.retryAfterSec())
	case "duplicate":
		writeJSONStatus(w, http.StatusOK, BatchAck{Status: status})
	case "deferred", "replaced":
		s.reg.Counter("ceereport_signals_deferred_total").Add(float64(len(sigs)))
		s.reg.Gauge("ceereport_queue_depth").Set(float64(s.QueueDepth()))
		writeJSONStatus(w, http.StatusAccepted, BatchAck{Status: status, Accepted: len(sigs)})
	default: // accepted synchronously
		writeJSONStatus(w, http.StatusAccepted, BatchAck{Status: status, Accepted: len(sigs)})
	}
}
