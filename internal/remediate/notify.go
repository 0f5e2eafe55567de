package remediate

// Operator notification hooks. Lifecycle transitions (and deferred-drain
// queue changes) fan out to pluggable Notifiers: a log sink for humans
// tailing the daemon, and a webhook POST with bounded retry for paging
// systems. The lifecycle manager calls its observer inside its own lock,
// so anything that blocks — a webhook over a faulty network — must sit
// behind Async, which hands events to a background sender over a bounded
// queue and never blocks a transition.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/backoff"
)

// Event is one notified control-plane occurrence.
type Event struct {
	Seq     uint64 `json:"seq,omitempty"`
	Day     int    `json:"day"`
	Machine string `json:"machine"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
	// Kind is "" for a state transition, or the WAL bookkeeping kind
	// ("defer", "undefer") for drain-queue changes.
	Kind   string  `json:"kind,omitempty"`
	Pool   string  `json:"pool,omitempty"`
	Score  float64 `json:"score,omitempty"`
	Reason string  `json:"reason,omitempty"`
	Actor  string  `json:"actor,omitempty"`
}

// Notifier receives control-plane events. Notify must tolerate being
// called from hot paths; implementations that do I/O belong behind Async.
type Notifier interface {
	Notify(Event)
	Close() error
}

// LogNotifier writes one line per event to W.
type LogNotifier struct {
	mu sync.Mutex
	W  io.Writer
}

// NewLogNotifier returns a line-per-event sink on w.
func NewLogNotifier(w io.Writer) *LogNotifier { return &LogNotifier{W: w} }

func (l *LogNotifier) Notify(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch e.Kind {
	case "defer":
		fmt.Fprintf(l.W, "lifecycle: day %d machine %s drain deferred (pool %s, score %.2f): %s\n",
			e.Day, e.Machine, e.Pool, e.Score, e.Reason)
	case "undefer":
		fmt.Fprintf(l.W, "lifecycle: day %d machine %s deferred drain %s\n", e.Day, e.Machine, e.Reason)
	default:
		fmt.Fprintf(l.W, "lifecycle: day %d machine %s %s -> %s (%s by %s)\n",
			e.Day, e.Machine, e.From, e.To, e.Reason, e.Actor)
	}
}

func (l *LogNotifier) Close() error { return nil }

// WebhookNotifier POSTs each event as JSON to URL, retrying transport
// errors and 5xx/429 answers with clamped exponential backoff. It blocks
// for the duration of the delivery — wrap it in Async for use as a
// lifecycle observer.
type WebhookNotifier struct {
	URL string
	// Client defaults to a 5s-timeout client. Chaos tests swap in a
	// client whose Transport injects faults.
	Client *http.Client
	// MaxAttempts bounds tries per event (0 means 4).
	MaxAttempts int
	// Backoff is the base retry delay (0 means 25ms), doubled per retry
	// and clamped at 32× base with overflow protection.
	Backoff time.Duration

	mu        sync.Mutex
	delivered int
	failed    int
}

func (n *WebhookNotifier) client() *http.Client {
	if n.Client != nil {
		return n.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

// backoffDelay returns the delay before retry i (0-based): Backoff
// (default 25ms) doubled per retry, clamped at 32× base.
func (n *WebhookNotifier) backoffDelay(i int) time.Duration {
	base := n.Backoff
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	return backoff.Delay(base, 32*base, i)
}

// Notify delivers e, retrying per the notifier's policy. Delivery
// failures are counted, never surfaced — notifications must not be able
// to wedge the control plane they describe.
func (n *WebhookNotifier) Notify(e Event) {
	body, err := json.Marshal(e)
	if err != nil {
		n.mu.Lock()
		n.failed++
		n.mu.Unlock()
		return
	}
	attempts := n.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(n.backoffDelay(attempt - 1))
		}
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, n.URL, bytes.NewReader(body))
		if err != nil {
			break
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := n.client().Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			continue
		}
		n.mu.Lock()
		n.delivered++
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.failed++
	n.mu.Unlock()
}

// Delivered returns the number of events acknowledged by the endpoint.
func (n *WebhookNotifier) Delivered() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// Failed returns the number of events that exhausted their retries.
func (n *WebhookNotifier) Failed() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failed
}

func (n *WebhookNotifier) Close() error { return nil }

// Async decouples a blocking Notifier from its caller: Notify enqueues
// onto a bounded buffer served by one background sender, dropping (and
// counting) events when the buffer is full. This is the only safe way to
// hang a WebhookNotifier off the lifecycle manager's observer, which runs
// under the manager lock.
type Async struct {
	inner Notifier
	ch    chan Event
	done  chan struct{}

	mu      sync.Mutex
	dropped int
	closed  bool
}

// NewAsync wraps inner with a bounded asynchronous queue (size 0 means
// 1024) and starts the sender.
func NewAsync(inner Notifier, size int) *Async {
	if size <= 0 {
		size = 1024
	}
	a := &Async{inner: inner, ch: make(chan Event, size), done: make(chan struct{})}
	go a.run()
	return a
}

func (a *Async) run() {
	defer close(a.done)
	for e := range a.ch {
		a.inner.Notify(e)
	}
}

// Notify enqueues without blocking; a full queue drops the event. The
// non-blocking send happens under the mutex so it cannot race Close's
// channel close.
func (a *Async) Notify(e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	select {
	case a.ch <- e:
	default:
		a.dropped++
	}
}

// Dropped returns how many events the full queue discarded.
func (a *Async) Dropped() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Close drains the queue, waits for the sender, and closes the inner
// notifier. Safe to call once.
func (a *Async) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		<-a.done
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	close(a.ch)
	<-a.done
	return a.inner.Close()
}
