// Command ceereportd runs the suspect-core report service (§6's "simple
// RPC service that allows an application to report a suspect core or CPU")
// as a standalone HTTP server.
//
// Usage:
//
//	ceereportd -addr :8080 -cores-per-machine 64 \
//	           -wal /var/lib/ceereportd/lifecycle.wal -queue 65536 \
//	           -pools "web:0.9,db:2" -notify-log -notify-webhook http://pager/hook
//
// API:
//
//	POST /v1/report   {"machine":"m1","core":7,"kind":"app-error","time_sec":0}
//	                  → 202 on accept; 400 on a malformed report, a
//	                  machine-less report, trailing bytes after the JSON
//	                  object, or a core outside [-1, cores-per-machine)
//	                  (-1 means machine-level attribution); 413 when the
//	                  body exceeds 64 KiB
//	POST /v1/reports  {"source":"host-a","seq":7,"reports":[...]} → 202 on
//	                  accept/defer, 200 on an idempotent duplicate, 429 +
//	                  Retry-After when the bounded ingest queue sheds,
//	                  413 beyond 1 MiB
//	GET  /v1/suspects → 200, JSON array of nominated suspects
//	GET  /v1/stats    → 200, {"total_reports":N,"machines":N,"suspects":N}
//	                  — machines counts every distinct machine that has
//	                  ever reported, not just those hosting suspects
//	GET  /v1/metrics  → 200, Prometheus text format (version 0.0.4):
//	                  accepted signals by kind, rejected reports by
//	                  reason, totals, queue/shed counters
//	GET  /v1/healthz  → 200, {"status":"ok"} — liveness probe
//	GET  /v1/readyz   → 200 when serving normally; 503 {"status":"degraded"}
//	                  when the lifecycle WAL is unwritable or the ingest
//	                  queue is saturated — readiness, distinct from liveness
//	GET  /v1/machines — machine-lifecycle ledger (with -wal); plus
//	                  GET /v1/machines/{id}, ?state=/&pool= filters, and the
//	                  operator verbs POST /v1/machines/{id}/{cordon,drain,
//	                  repair,release,remove,assign} with an optional JSON
//	                  body (202 when a cordon/drain is deferred behind a
//	                  pool's capacity floor; 400 on a malformed body or
//	                  trailing data after it; 413 past 64 KiB)
//	GET  /v1/pools    → 200, per-pool capacity accounting (with -pools) plus
//	                  the deferred-drain queue in admission order
//
// -pools declares capacity floors ("web:0.9,db:2": a value below 1 is the
// fraction of the pool that must stay serving, 1 or more an absolute
// machine count). Cordons and drains that would breach a floor are parked
// on a score-ordered queue (HTTP 202) and admitted as repaired machines
// return. -notify-log and -notify-webhook attach operator notification
// sinks for every lifecycle transition and drain-queue change; webhook
// delivery retries with backoff behind an async queue that never blocks a
// transition.
//
// Error contract: every non-2xx response carries Content-Type
// application/json and the uniform envelope {"error":"<human-readable
// cause>"}, so clients and load balancers never have to parse free-form
// text bodies. That includes 405 for a wrong method on any route and 404
// for an unknown path; GET routes also answer HEAD.
//
// With -wal, every lifecycle transition is appended (CRC-framed, fsynced)
// to the write-ahead log before it is acknowledged, and the ledger is
// replayed from the log on startup — a kill -9 loses at most a torn tail
// write, never an acknowledged transition.
//
// The server drains gracefully: SIGINT/SIGTERM stops accepting new
// connections and waits (bounded) for in-flight requests before exiting,
// then flushes the ingest queue.
//
// Exit status: 0 after a clean drain, 1 when the listener, the WAL or the
// shutdown fails, 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/remediate"
	"repro/internal/report"
)

// parsePools decodes the -pools flag: comma-separated name:floor pairs
// where a floor below 1 is a MinHealthy fraction ("web:0.9" keeps 90% of
// web serving) and a floor of 1 or more is an absolute MinHealthyCount
// ("db:2" keeps at least 2 db machines serving).
func parsePools(spec string) ([]lifecycle.PoolConfig, error) {
	var out []lifecycle.PoolConfig
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, val, ok := strings.Cut(field, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("pool %q: want name:floor", field)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate pool %q", name)
		}
		seen[name] = true
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("pool %q: floor must be a positive number, got %q", name, val)
		}
		cfg := lifecycle.PoolConfig{Name: name}
		if f < 1 {
			cfg.MinHealthy = f
		} else {
			if f != float64(int(f)) {
				return nil, fmt.Errorf("pool %q: absolute floor must be an integer, got %q", name, val)
			}
			cfg.MinHealthyCount = int(f)
		}
		out = append(out, cfg)
	}
	return out, nil
}

// notifyObserver adapts the notifier chain to the lifecycle observer
// seam, translating WAL records into operator events.
func notifyObserver(sinks []remediate.Notifier) func(lifecycle.Transition) {
	return func(t lifecycle.Transition) {
		e := remediate.EventOf(t)
		for _, s := range sinks {
			s.Notify(e)
		}
	}
}

func main() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], nil, sigc, os.Stderr))
}

// run serves the report API on ln (nil: listen on -addr) until stop
// delivers a signal or the listener fails, then drains and returns the
// exit status. Logs and -notify-log lines go to stderr.
func run(args []string, ln net.Listener, stop <-chan os.Signal, stderr io.Writer) int {
	fs := flag.NewFlagSet("ceereportd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	cores := fs.Int("cores-per-machine", 64, "cores per machine (concentration-test shape)")
	walPath := fs.String("wal", "", "machine-lifecycle WAL path (empty disables the /v1/machines admin API)")
	queue := fs.Int("queue", 0, "bounded ingest-queue capacity in signals (0 = synchronous ingest)")
	maxRepairs := fs.Int("max-repairs", 2, "repair cycles before a recidivist machine is permanently removed")
	pools := fs.String("pools", "", `capacity pools as name:floor pairs ("web:0.9,db:2"; <1 = serving fraction, >=1 = absolute count; needs -wal)`)
	notifyLog := fs.Bool("notify-log", false, "log every lifecycle transition and drain-queue change to stderr (needs -wal)")
	notifyWebhook := fs.String("notify-webhook", "", "POST every lifecycle event to this URL, with retry, behind an async queue (needs -wal)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	logf := log.New(stderr, "", log.LstdFlags).Printf

	if *cores <= 0 {
		fmt.Fprintln(stderr, "ceereportd: cores-per-machine must be positive")
		return 2
	}
	poolCfgs, err := parsePools(*pools)
	if err != nil {
		fmt.Fprintf(stderr, "ceereportd: -pools: %v\n", err)
		return 2
	}
	if *walPath == "" && (len(poolCfgs) > 0 || *notifyLog || *notifyWebhook != "") {
		fmt.Fprintln(stderr, "ceereportd: -pools and -notify-* need the lifecycle ledger (-wal)")
		return 2
	}
	if ln == nil {
		if ln, err = net.Listen("tcp", *addr); err != nil {
			logf("ceereportd: %v", err)
			return 1
		}
	}
	defer ln.Close()

	srv := report.NewServer(*cores)
	var life *lifecycle.Manager
	var notifiers []remediate.Notifier
	if *walPath != "" {
		var info lifecycle.RecoverInfo
		life, info, err = lifecycle.Open(*walPath, lifecycle.Options{
			MaxRepairs: *maxRepairs,
			Metrics:    srv.Metrics(),
		})
		if err != nil {
			fmt.Fprintf(stderr, "ceereportd: lifecycle WAL: %v\n", err)
			return 1
		}
		logf("ceereportd: lifecycle ledger recovered from %s (%d records, %d torn bytes truncated)",
			*walPath, info.Records, info.TornBytes)
		for _, cfg := range poolCfgs {
			life.DefinePool(cfg)
		}
		// The observer is attached after Open so recovery replay does not
		// re-notify events that were already delivered in a prior life.
		if *notifyLog {
			notifiers = append(notifiers, remediate.NewLogNotifier(stderr))
		}
		if *notifyWebhook != "" {
			// The webhook blocks on delivery and the observer runs under
			// the manager lock, so it goes behind the async queue.
			notifiers = append(notifiers, remediate.NewAsync(&remediate.WebhookNotifier{URL: *notifyWebhook}, 1024))
		}
		if len(notifiers) > 0 {
			life.SetObserver(notifyObserver(notifiers))
		}
		srv.SetLifecycle(life)
	}
	if *queue > 0 {
		srv.EnableQueue(*queue)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	errc := make(chan error, 1)
	logf("ceereportd listening on %s (machines shaped %d cores)", ln.Addr(), *cores)
	go func() { errc <- httpSrv.Serve(ln) }()

	status := 0
	select {
	case err := <-errc:
		// The listener failed before any shutdown was requested.
		logf("ceereportd: serve: %v", err)
		status = 1
	case sig := <-stop:
		logf("ceereportd: %v received, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := httpSrv.Shutdown(ctx)
		cancel()
		if err != nil {
			logf("ceereportd: shutdown: %v", err)
			status = 1
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			logf("ceereportd: serve: %v", err)
			status = 1
		}
	}
	// HTTP is quiesced: flush the ingest queue, seal the WAL, then flush
	// the notifier chain (no transitions can fire once the WAL is sealed).
	srv.Close()
	if life != nil {
		if err := life.Close(); err != nil {
			logf("ceereportd: lifecycle close: %v", err)
			status = 1
		}
	}
	for _, n := range notifiers {
		if err := n.Close(); err != nil {
			logf("ceereportd: notifier close: %v", err)
		}
	}
	if status == 0 {
		logf("ceereportd: drained cleanly")
	}
	return status
}
