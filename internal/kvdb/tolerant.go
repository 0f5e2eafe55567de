// Tolerant serving: the mitigation layer that turns the store from a
// passive incident generator into a self-defending service.
//
// §6 of the paper asks applications to feed their self-check failures
// (checksum mismatches, replica divergence) into the suspect-report
// service; §7 asks for retry-on-a-different-core mitigation. TolerantDB
// closes both loops around DB:
//
//   - every ErrCorrupt/ErrDivergent event is converted into a
//     detect.Signal attributing the serving replica's core and delivered
//     through a SignalSink (in-process report.Server ingest for the fleet
//     simulator, report.Client HTTP for a remote ceereportd);
//   - reads retry on a different replica with bounded backoff, escalate
//     to ReadRepair, and degrade gracefully (serve the plurality value
//     and mark the row suspect) instead of erroring;
//   - replica selection is health-aware: replicas whose cores are
//     quarantined or highly scored by the tracker are deprioritized,
//     closing the report → nominate → quarantine → reroute cycle.
//
// Unlike DB, a TolerantDB is safe for concurrent use. Concurrency is
// sharded, not serialized: each of the StorageShards key partitions is
// guarded by its own RWMutex (mirroring detect.ShardedTracker), reads of
// different rows proceed in parallel, and retry backoff sleeps with no
// lock held, so one corrupt row backing off never stalls the rest of the
// store. The per-replica engine mutex underneath (the simulated core is
// inherently serial) is the only cross-shard serialization point.
//
// Lock ordering, outermost first:
//
//  1. shard mutexes, ascending by shard index (an operation holds either
//     one shard — Get/Put — or all of them — QueryByValue);
//  2. the replica engine mutex (taken inside Replica methods, never held
//     across shard-lock acquisition);
//  3. statsMu / the signal-queue mutex (leaves; never held across 1–2).
//
// Signal delivery is synchronous by default (deterministic, what the
// fleet's serial kvdb phase needs). With SignalQueue > 0, emits append to
// a bounded in-memory queue drained by a background flusher in batches —
// ceereportd's ingest-queue shape — so a slow or remote sink never blocks
// a read; overflow sheds the newest signal (counted, never blocking).
package kvdb

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
)

// SignalSink delivers one suspect-core signal. A non-nil error means the
// signal was lost (counted, never surfaced to the reading client: the
// serving path must not fail because the reporting path did).
type SignalSink func(detect.Signal) error

// BatchSignalSink delivers a batch of signals in one call. When set, the
// async flusher (SignalQueue > 0) prefers it over per-signal Sink calls —
// one ingest per drained batch instead of one per signal.
type BatchSignalSink func([]detect.Signal) error

// ServerSink delivers signals in-process to a report server — the fleet
// simulator's path.
func ServerSink(s *report.Server) SignalSink {
	return func(sig detect.Signal) error {
		s.Ingest(sig)
		return nil
	}
}

// ServerBatchSink batch-delivers signals in-process to a report server.
func ServerBatchSink(s *report.Server) BatchSignalSink {
	return func(sigs []detect.Signal) error {
		s.IngestBatch(sigs)
		return nil
	}
}

// ClientSink delivers signals to a remote ceereportd over HTTP via the
// report client (which retries transport failures with backoff).
func ClientSink(c *report.Client) SignalSink {
	return func(sig detect.Signal) error {
		return c.Report(report.Report{
			Machine: sig.Machine,
			Core:    sig.Core,
			Kind:    sig.Kind.String(),
			Detail:  sig.Detail,
			TimeSec: float64(sig.Time),
		})
	}
}

// ClientBatchSink delivers signal batches to a remote ceereportd in one
// POST /v1/reports call each.
func ClientBatchSink(c *report.Client) BatchSignalSink {
	return func(sigs []detect.Signal) error {
		reports := make([]report.Report, len(sigs))
		for i, sig := range sigs {
			reports[i] = report.Report{
				Machine: sig.Machine,
				Core:    sig.Core,
				Kind:    sig.Kind.String(),
				Detail:  sig.Detail,
				TimeSec: float64(sig.Time),
			}
		}
		_, err := c.ReportBatch(report.Batch{Reports: reports})
		return err
	}
}

// HealthFunc reports whether the (machine, core) slot serving a replica
// should be deprioritized — typically because the core is quarantined or
// its suspect score crossed a threshold. Avoided replicas are still used
// when every alternative has been tried (capacity over health).
type HealthFunc func(machine string, core int) bool

// HealthCacheTTL is the memoization window TrackerHealth uses for the
// tracker's suspect nominations. Suspect scores move on signal-ingest
// timescales (per-day in the simulator, seconds in a deployment), so a
// few milliseconds of staleness is invisible — while re-walking the full
// suspects() slice once per replica per read is an O(replicas × suspects)
// tax on the hottest path in the store.
const HealthCacheTTL = 5 * time.Millisecond

// TrackerHealth builds a HealthFunc from the two live views a deployment
// has: the quarantine ledger and the tracker's suspect nominations. A
// replica is avoided when its core is isolated, or when a current suspect
// for that exact core scores at least minScore. Nomination lookups are
// memoized for HealthCacheTTL (see TrackerHealthTTL).
func TrackerHealth(isolated func(machine string, core int) bool,
	suspects func() []detect.Suspect, minScore float64) HealthFunc {
	return TrackerHealthTTL(isolated, suspects, minScore, HealthCacheTTL, time.Now)
}

// TrackerHealthTTL is TrackerHealth with an explicit memoization window
// and clock (the clock seam exists for tests; nil means time.Now). The
// isolated view is always consulted live — quarantine decisions must
// reroute immediately. The suspects() slice is folded into a set at most
// once per ttl; ttl <= 0 disables caching and re-evaluates suspects() on
// every query, the historical behavior.
func TrackerHealthTTL(isolated func(machine string, core int) bool,
	suspects func() []detect.Suspect, minScore float64,
	ttl time.Duration, now func() time.Time) HealthFunc {
	if ttl <= 0 {
		return func(machine string, core int) bool {
			if machine == "" || core < 0 {
				return false
			}
			if isolated != nil && isolated(machine, core) {
				return true
			}
			if suspects == nil {
				return false
			}
			for _, s := range suspects() {
				if s.Machine == machine && s.Core == core && s.Score() >= minScore {
					return true
				}
			}
			return false
		}
	}
	if now == nil {
		now = time.Now
	}
	type coreKey struct {
		machine string
		core    int
	}
	var (
		mu      sync.Mutex
		cached  map[coreKey]bool
		expires time.Time
	)
	return func(machine string, core int) bool {
		if machine == "" || core < 0 {
			return false
		}
		if isolated != nil && isolated(machine, core) {
			return true
		}
		if suspects == nil {
			return false
		}
		mu.Lock()
		if cached == nil || !now().Before(expires) {
			cached = map[coreKey]bool{}
			for _, s := range suspects() {
				if s.Score() >= minScore {
					cached[coreKey{s.Machine, s.Core}] = true
				}
			}
			expires = now().Add(ttl)
		}
		avoid := cached[coreKey{machine, core}]
		mu.Unlock()
		return avoid
	}
}

// TolerantConfig parameterizes the serving layer.
type TolerantConfig struct {
	// MaxRetries bounds how many additional replicas a checksum-failed
	// read tries before escalating to ReadRepair. 0 selects the default
	// (2); negative disables retries.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubled per
	// further retry and capped at MaxBackoff. Zero disables sleeping —
	// the right setting for simulation, where retries are instantaneous.
	// Backoff sleeps hold no lock: a backing-off read never stalls other
	// readers or writers.
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential backoff; zero means 8×RetryBackoff.
	MaxBackoff time.Duration
	// DualRead serves every read from two distinct replicas and compares
	// — §6's dual-computation detector as the steady-state read path.
	// Divergence escalates to ReadRepair, which majority-votes blame.
	DualRead bool
	// Sink receives every detection signal; nil drops them (counted).
	Sink SignalSink
	// BatchSink, if set, is preferred by the async flusher (SignalQueue
	// > 0) so a drained batch costs one delivery. Ignored for synchronous
	// emits unless Sink is nil, in which case single-signal batches go
	// through it.
	BatchSink BatchSignalSink
	// Health deprioritizes replicas on unhealthy cores; nil treats every
	// replica as healthy. It is consulted at most once per replica per
	// read (the per-read health snapshot).
	Health HealthFunc
	// Metrics receives serving counters and histograms; nil records
	// nothing. Replaceable later via SetMetrics.
	Metrics *obs.Registry
	// Now timestamps outgoing signals; nil means the zero time.
	Now func() simtime.Time
	// SignalQueue enables asynchronous signal delivery: emits append to a
	// bounded queue of this capacity drained by a background flusher, so
	// the sink never blocks a read. 0 (the default) delivers signals
	// synchronously in emission order — the deterministic mode the fleet
	// simulator requires. Overflow sheds the newest signal (counted in
	// SignalsShed). Callers using a queue should Close (or Flush) the
	// store when done.
	SignalQueue int
	// sleep is a test seam for backoff; nil means time.Sleep.
	sleep func(time.Duration)
}

// TolerantStats counts the serving layer's mitigation activity.
type TolerantStats struct {
	// Reads, Writes, IndexQueries count client operations.
	Reads, Writes, IndexQueries int
	// Retries counts different-replica retries after a failed read.
	Retries int
	// RecoveredByRetry counts reads that succeeded on a retry replica.
	RecoveredByRetry int
	// Repairs counts reads served through a successful ReadRepair.
	Repairs int
	// DegradedServes counts reads served with a plurality (no-majority)
	// value; the row is marked suspect.
	DegradedServes int
	// IndexDivergence counts index queries where replicas disagreed.
	IndexDivergence int
	// Errors counts client-visible read errors (not-found excluded).
	Errors int
	// SignalsSent and SignalsDropped count suspect-report delivery.
	SignalsSent, SignalsDropped int
	// SignalsShed counts signals discarded because the async queue was
	// full (always 0 in synchronous mode).
	SignalsShed int
}

// readAttemptBuckets grade the per-read replica-attempt histogram.
var readAttemptBuckets = []float64{1, 2, 3, 4, 5, 8}

// ReadInfo describes how one tolerant read was served — the load
// generator's window into per-read mitigation cost.
type ReadInfo struct {
	// Attempts is the number of single-replica read attempts consumed
	// before any repair escalation.
	Attempts int
	// Retries counts the different-replica retries within this read.
	Retries int
	// Result is the read's disposition: "ok", "retried", "repaired",
	// "degraded", "not-found", or "error".
	Result string
	// BackedOff is the total backoff delay this read requested.
	BackedOff time.Duration
}

// tshard is one lock shard: the RWMutex guarding partition i of every
// replica's storage, plus the suspect-row marks for keys in the partition.
type tshard struct {
	mu      sync.RWMutex
	suspect map[string]bool // rows served degraded, pending operator review
	// pad to a cache line so neighbouring shard locks don't false-share.
	_ [24]byte
}

// TolerantDB wraps a DB with the CEE-tolerant serving policy. Safe for
// concurrent use; see the package comment for the locking design.
type TolerantDB struct {
	db  *DB
	cfg TolerantConfig
	// shards[i] guards partition i of every replica (shardIndex(key)).
	shards [StorageShards]tshard
	// cursor is the round-robin replica cursor, kept in [0, replicas).
	// Out-of-range values (tests pre-seed overflow) are renormalized on
	// read, never indexed.
	cursor atomic.Int64
	// statsMu guards stats and the mirrored db.Stats fields. Leaf lock.
	statsMu sync.Mutex
	stats   TolerantStats
	// inst caches instrument handles so the hot path skips the registry
	// mutex; swapped wholesale by SetMetrics.
	inst  atomic.Pointer[kvInstruments]
	queue *signalQueue
}

// NewTolerant wraps db with the tolerant serving policy.
func NewTolerant(db *DB, cfg TolerantConfig) *TolerantDB {
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 2
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	t := &TolerantDB{db: db, cfg: cfg}
	for i := range t.shards {
		t.shards[i].suspect = map[string]bool{}
	}
	// Adopt the wrapped store's cursor so a DB warmed by direct reads
	// keeps its rotation, normalized into range.
	n := len(db.replicas)
	c := db.next % n
	if c < 0 {
		c += n
	}
	t.cursor.Store(int64(c))
	t.inst.Store(newKVInstruments(cfg.Metrics))
	if cfg.SignalQueue > 0 {
		t.queue = newSignalQueue(t, cfg.SignalQueue)
	}
	return t
}

// DB returns the wrapped store (single-goroutine access only).
func (t *TolerantDB) DB() *DB { return t.db }

// SetMetrics replaces the metrics registry (nil disables recording).
func (t *TolerantDB) SetMetrics(reg *obs.Registry) {
	t.inst.Store(newKVInstruments(reg))
}

// Flush blocks until every signal emitted so far has been delivered (or
// dropped). No-op in synchronous mode.
func (t *TolerantDB) Flush() {
	if t.queue != nil {
		t.queue.flush()
	}
}

// Close drains and stops the async signal flusher. Signals emitted after
// Close are shed. No-op in synchronous mode.
func (t *TolerantDB) Close() {
	if t.queue != nil {
		t.queue.close()
	}
}

// Stats returns a copy of the serving counters.
func (t *TolerantDB) Stats() TolerantStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stats
}

// SuspectRows returns the rows marked suspect by degraded serves, sorted.
func (t *TolerantDB) SuspectRows() []string {
	out := []string{}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for k := range sh.suspect {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// RowSuspect reports whether a degraded serve marked the row suspect.
func (t *TolerantDB) RowSuspect(key string) bool {
	sh := t.shardFor(key)
	sh.mu.RLock()
	v := sh.suspect[key]
	sh.mu.RUnlock()
	return v
}

// shardFor returns the lock shard guarding key's partition.
func (t *TolerantDB) shardFor(key string) *tshard {
	return &t.shards[shardIndex(key)]
}

// Put writes the row through every replica (see DB.Put). Only key's shard
// is locked: partition shardIndex(key) of every replica is owned by that
// one lock.
func (t *TolerantDB) Put(key string, value []byte) {
	sh := t.shardFor(key)
	sh.mu.Lock()
	t.db.putRows(key, value)
	// A successful full write supersedes any earlier degraded serve.
	delete(sh.suspect, key)
	sh.mu.Unlock()
	t.statsMu.Lock()
	t.stats.Writes++
	t.db.Stats.Writes++
	t.statsMu.Unlock()
	t.ins().writes().Inc()
}

// Get serves a read with the full mitigation ladder: health-aware replica
// selection, retry on a different replica with bounded backoff, ReadRepair
// escalation, and degraded plurality serving. Checksum failures and
// divergence are reported through the sink; the client sees an error only
// for missing keys or total corruption.
func (t *TolerantDB) Get(key string) ([]byte, error) {
	v, _, err := t.GetTraced(key)
	return v, err
}

// GetTraced is Get plus a per-read trace of the mitigation work done —
// attempts, retries, disposition, total backoff — so load generators can
// segment latency by outcome.
func (t *TolerantDB) GetTraced(key string) ([]byte, ReadInfo, error) {
	t.statsMu.Lock()
	t.stats.Reads++
	t.db.Stats.Reads++
	t.statsMu.Unlock()
	var info ReadInfo
	v, err := t.get(key, &info)
	ins := t.ins()
	ins.reads(info.Result).Inc()
	ins.attempts().Observe(float64(info.Attempts))
	return v, info, err
}

// get runs the mitigation ladder. Shard read locks are held only across
// individual replica reads — never across backoff sleeps or signal
// delivery.
func (t *TolerantDB) get(key string, info *ReadInfo) ([]byte, error) {
	n := len(t.db.replicas)
	tried := make([]bool, n)
	hm := healthMemo{t: t}
	sh := t.shardFor(key)
	if t.cfg.DualRead && n >= 2 {
		ia := t.pickReplica(tried, &hm)
		tried[ia] = true
		ib := t.pickReplica(tried, &hm)
		tried[ib] = true
		info.Attempts = 2
		a, b := t.db.replicas[ia], t.db.replicas[ib]
		sh.mu.RLock()
		va, errA := a.get(key)
		vb, errB := b.get(key)
		sh.mu.RUnlock()
		switch {
		case errA == nil && errB == nil && bytes.Equal(va, vb):
			info.Result = "ok"
			return va, nil
		case errors.Is(errA, ErrNotFound) && errors.Is(errB, ErrNotFound):
			info.Result = "not-found"
			return nil, ErrNotFound
		case errA == nil && errB == nil:
			// Both checksums pass but the bytes diverge: the §6 dual-
			// computation detection. ReadRepair majority-votes the blame.
			t.statsMu.Lock()
			t.db.Stats.DivergenceCaught++
			t.statsMu.Unlock()
			return t.repairServe(key, sh, info)
		default:
			// At least one read failed. Report checksum failures against
			// their serving cores (in replica order, so signal emission is
			// deterministic), then escalate: the repair scan both heals and
			// attributes any remaining disagreement.
			for _, p := range []struct {
				r *Replica
				e error
			}{{a, errA}, {b, errB}} {
				if errors.Is(p.e, ErrCorrupt) {
					t.statsMu.Lock()
					t.db.Stats.CorruptReads++
					t.statsMu.Unlock()
					t.emit(p.r, "read checksum mismatch: "+key)
				}
			}
			return t.repairServe(key, sh, info)
		}
	}
	retrying := false
	for {
		ri := t.pickReplica(tried, &hm)
		if ri < 0 {
			break // every replica tried
		}
		if retrying {
			// Count the retry only once a fresh replica actually exists.
			t.statsMu.Lock()
			t.stats.Retries++
			t.statsMu.Unlock()
			t.ins().retries().Inc()
			info.Retries++
			t.backoff(info.Attempts-1, info)
		}
		tried[ri] = true
		info.Attempts++
		r := t.db.replicas[ri]
		sh.mu.RLock()
		v, rerr := r.get(key)
		sh.mu.RUnlock()
		if rerr == nil {
			if info.Attempts > 1 {
				t.statsMu.Lock()
				t.stats.RecoveredByRetry++
				t.statsMu.Unlock()
				t.ins().recovered().Inc()
				info.Result = "retried"
				return v, nil
			}
			info.Result = "ok"
			return v, nil
		}
		if errors.Is(rerr, ErrNotFound) {
			// Rows are replicated to every replica; missing here means
			// missing everywhere.
			info.Result = "not-found"
			return nil, rerr
		}
		t.statsMu.Lock()
		t.db.Stats.CorruptReads++
		t.statsMu.Unlock()
		t.emit(r, "read checksum mismatch: "+key)
		if info.Attempts > t.cfg.MaxRetries {
			break
		}
		retrying = true
	}
	return t.repairServe(key, sh, info)
}

// repairServe escalates a failed read to ReadRepair under the shard's
// write lock and, when even repair cannot find a majority, degrades to
// serving the plurality value with the row marked suspect. Blame from the
// repair scan is reported per replica after the lock is released, in the
// same deterministic order as the scan.
func (t *TolerantDB) repairServe(key string, sh *tshard, info *ReadInfo) ([]byte, error) {
	sh.mu.Lock()
	winner, sc, repaired, err := t.db.readRepair(key)
	best := 0
	if errors.Is(err, ErrDivergent) && len(sc.votes) > 0 {
		// No majority among the valid reads: pick the plurality value
		// (first-seen order breaks ties) and mark the row suspect while
		// still holding the exclusive lock.
		for i := range sc.votes {
			if len(sc.votes[i].replicas) > len(sc.votes[best].replicas) {
				best = i
			}
		}
		sh.suspect[key] = true
	}
	sh.mu.Unlock()

	// Account the scan and the repair writes (scanRow/readRepair are
	// stats-free so they can run under any caller's locking discipline).
	t.statsMu.Lock()
	t.db.Stats.CorruptReads += len(sc.corrupt)
	t.db.Stats.Repairs += repaired
	if errors.Is(err, ErrDivergent) {
		t.db.Stats.DivergenceCaught++
	}
	t.statsMu.Unlock()

	for _, r := range sc.corrupt {
		t.emit(r, "checksum failure during read repair: "+key)
	}
	if err == nil {
		for _, vote := range sc.votes {
			if bytes.Equal(vote.val, winner) {
				continue
			}
			for _, r := range vote.replicas {
				t.emit(r, "replica divergence (outvoted): "+key)
			}
		}
		t.statsMu.Lock()
		t.stats.Repairs++
		t.statsMu.Unlock()
		t.ins().repairs().Inc()
		info.Result = "repaired"
		return winner, nil
	}
	if errors.Is(err, ErrDivergent) && len(sc.votes) > 0 {
		for i, vote := range sc.votes {
			if i == best {
				continue
			}
			for _, r := range vote.replicas {
				t.emit(r, "replica divergence (no majority): "+key)
			}
		}
		t.statsMu.Lock()
		t.stats.DegradedServes++
		t.statsMu.Unlock()
		t.ins().degraded().Inc()
		info.Result = "degraded"
		return sc.votes[best].val, nil
	}
	if errors.Is(err, ErrNotFound) {
		info.Result = "not-found"
		return nil, err
	}
	// Total corruption: nothing trustworthy to serve.
	t.statsMu.Lock()
	t.stats.Errors++
	t.statsMu.Unlock()
	t.ins().readErrors().Inc()
	info.Result = "error"
	return nil, err
}

// QueryByValue answers a secondary-index query by voting the answer across
// replicas — the §2 replica-dependent index-corruption incident, detected
// and outvoted at serve time. Minority replicas are reported; the client
// always gets the plurality answer. The index scan crosses every key
// partition, so all shard read locks are held (ascending) for the scan.
func (t *TolerantDB) QueryByValue(value []byte) []string {
	t.lockAllRead()
	type answer struct {
		keys     []string
		replicas []*Replica
	}
	var answers []answer
	for _, r := range t.db.replicas {
		keys := r.lookupByValue(value)
		matched := false
		for i := range answers {
			if equalStrings(answers[i].keys, keys) {
				answers[i].replicas = append(answers[i].replicas, r)
				matched = true
				break
			}
		}
		if !matched {
			answers = append(answers, answer{keys: keys, replicas: []*Replica{r}})
		}
	}
	t.unlockAllRead()
	best := 0
	for i := range answers {
		if len(answers[i].replicas) > len(answers[best].replicas) {
			best = i
		}
	}
	t.statsMu.Lock()
	t.stats.IndexQueries++
	t.db.Stats.IndexQueries++
	if len(answers) > 1 {
		t.stats.IndexDivergence++
		t.db.Stats.IndexDivergence++
	}
	t.statsMu.Unlock()
	if len(answers) > 1 {
		t.ins().indexDivergence().Inc()
		for i, a := range answers {
			if i == best {
				continue
			}
			for _, r := range a.replicas {
				t.emit(r, "secondary-index divergence (outvoted)")
			}
		}
	}
	return answers[best].keys
}

func (t *TolerantDB) lockAllRead() {
	for i := range t.shards {
		t.shards[i].mu.RLock()
	}
}

func (t *TolerantDB) unlockAllRead() {
	for i := range t.shards {
		t.shards[i].mu.RUnlock()
	}
}

// healthMemo is the per-read snapshot of the health view: each replica's
// Health verdict is evaluated at most once per read, instead of once per
// selection scan that passes over it.
type healthMemo struct {
	t     *TolerantDB
	state []int8 // 0 unknown, 1 avoid, 2 healthy
}

func (h *healthMemo) avoid(i int) bool {
	t := h.t
	if t.cfg.Health == nil {
		return false
	}
	if h.state == nil {
		h.state = make([]int8, len(t.db.replicas))
	}
	if s := h.state[i]; s != 0 {
		return s == 1
	}
	r := t.db.replicas[i]
	if t.cfg.Health(r.Machine, r.CoreIndex) {
		h.state[i] = 1
		return true
	}
	h.state[i] = 2
	return false
}

// pickReplica returns the index of the next untried replica, round-robin
// from the store's cursor. The first pass skips replicas the health view
// avoids; the second accepts them — serving from a suspect core beats not
// serving at all. Returns -1 when every replica has been tried. The
// cursor is renormalized before use so a value that overflowed (or was
// pre-seeded out of range) can never index negatively.
func (t *TolerantDB) pickReplica(tried []bool, hm *healthMemo) int {
	n := len(t.db.replicas)
	cur := int(t.cursor.Load())
	if cur < 0 || cur >= n {
		cur %= n
		if cur < 0 {
			cur += n
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			idx := (cur + i) % n
			if tried[idx] {
				continue
			}
			if pass == 0 && hm.avoid(idx) {
				continue
			}
			t.cursor.Store(int64((idx + 1) % n))
			return idx
		}
	}
	return -1
}

// emit converts one detection event into a suspect-report signal
// attributing the serving replica's core and hands it to the sink —
// synchronously in order (SignalQueue == 0) or via the bounded async
// queue. Replicas without a fleet slot report under their replica ID with
// core -1 (machine-level attribution). Never called with a shard lock
// held.
func (t *TolerantDB) emit(r *Replica, detail string) {
	machine := r.Machine
	if machine == "" {
		machine = r.ID
	}
	sig := detect.Signal{
		Machine: machine,
		Core:    r.CoreIndex,
		Kind:    detect.SigAppError,
		Detail:  detail,
	}
	if t.cfg.Now != nil {
		sig.Time = t.cfg.Now()
	}
	if t.queue != nil {
		if t.queue.offer(sig) {
			return
		}
		t.statsMu.Lock()
		t.stats.SignalsShed++
		t.statsMu.Unlock()
		t.ins().shed().Inc()
		return
	}
	t.deliver([]detect.Signal{sig})
}

// deliver pushes a batch of signals into the configured sink and accounts
// the outcome. Used directly by synchronous emits (batches of one) and by
// the async flusher.
func (t *TolerantDB) deliver(sigs []detect.Signal) {
	if len(sigs) == 0 {
		return
	}
	ins := t.ins()
	drop := func(n int) {
		t.statsMu.Lock()
		t.stats.SignalsDropped += n
		t.statsMu.Unlock()
		ins.dropped().Add(float64(n))
	}
	sent := func(n int, kind detect.SignalKind) {
		t.statsMu.Lock()
		t.stats.SignalsSent += n
		t.statsMu.Unlock()
		ins.signals(kind).Add(float64(n))
	}
	switch {
	case t.cfg.BatchSink != nil:
		if err := t.cfg.BatchSink(sigs); err != nil {
			drop(len(sigs))
			return
		}
		sent(len(sigs), sigs[0].Kind)
	case t.cfg.Sink != nil:
		for _, sig := range sigs {
			if err := t.cfg.Sink(sig); err != nil {
				drop(1)
				continue
			}
			sent(1, sig.Kind)
		}
	default:
		drop(len(sigs))
	}
}

// backoffDelay computes the delay before retry number retry (0-based):
// RetryBackoff doubled per retry, capped at MaxBackoff (default
// 8×RetryBackoff).
func (t *TolerantDB) backoffDelay(retry int) time.Duration {
	max := t.cfg.MaxBackoff
	if max <= 0 {
		max = 8 * t.cfg.RetryBackoff
	}
	return backoff.Delay(t.cfg.RetryBackoff, max, retry)
}

// backoff sleeps before retry number retry (0-based), holding no lock.
// No-op when RetryBackoff is zero.
func (t *TolerantDB) backoff(retry int, info *ReadInfo) {
	d := t.backoffDelay(retry)
	if d == 0 {
		return
	}
	info.BackedOff += d
	sleep := t.cfg.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(d)
}

func (t *TolerantDB) ins() *kvInstruments { return t.inst.Load() }

// kvInstruments caches instrument handles per registry so hot-path
// recording is one atomic load instead of a registry mutex + map lookup.
// Handles are created lazily on first use, preserving the historical
// "series appear when first incremented" exposition behavior.
type kvInstruments struct {
	reg                   *obs.Registry
	writesC, retriesC     atomic.Pointer[obs.Counter]
	recoveredC, repairsC  atomic.Pointer[obs.Counter]
	degradedC, idxDivC    atomic.Pointer[obs.Counter]
	errorsC, droppedC     atomic.Pointer[obs.Counter]
	shedC, sigAppC        atomic.Pointer[obs.Counter]
	readsOKC, readsRetryC atomic.Pointer[obs.Counter]
	readsRepairC          atomic.Pointer[obs.Counter]
	readsDegradedC        atomic.Pointer[obs.Counter]
	readsNotFoundC        atomic.Pointer[obs.Counter]
	readsErrorC           atomic.Pointer[obs.Counter]
	attemptsH             atomic.Pointer[obs.Histogram]
}

func newKVInstruments(reg *obs.Registry) *kvInstruments {
	return &kvInstruments{reg: reg}
}

func (k *kvInstruments) counter(p *atomic.Pointer[obs.Counter], name string, labels ...obs.Label) *obs.Counter {
	if c := p.Load(); c != nil {
		return c
	}
	c := k.reg.Counter(name, labels...) // nil registry → shared no-op
	p.Store(c)
	return c
}

func (k *kvInstruments) writes() *obs.Counter {
	return k.counter(&k.writesC, "kvdb_writes_total")
}
func (k *kvInstruments) retries() *obs.Counter {
	return k.counter(&k.retriesC, "kvdb_read_retries_total")
}
func (k *kvInstruments) recovered() *obs.Counter {
	return k.counter(&k.recoveredC, "kvdb_reads_recovered_by_retry_total")
}
func (k *kvInstruments) repairs() *obs.Counter {
	return k.counter(&k.repairsC, "kvdb_read_repairs_total")
}
func (k *kvInstruments) degraded() *obs.Counter {
	return k.counter(&k.degradedC, "kvdb_degraded_serves_total")
}
func (k *kvInstruments) indexDivergence() *obs.Counter {
	return k.counter(&k.idxDivC, "kvdb_index_divergence_total")
}
func (k *kvInstruments) readErrors() *obs.Counter {
	return k.counter(&k.errorsC, "kvdb_read_errors_total")
}
func (k *kvInstruments) dropped() *obs.Counter {
	return k.counter(&k.droppedC, "kvdb_signals_dropped_total")
}
func (k *kvInstruments) shed() *obs.Counter {
	return k.counter(&k.shedC, "kvdb_signals_shed_total")
}

func (k *kvInstruments) signals(kind detect.SignalKind) *obs.Counter {
	// Every serving-layer signal is SigAppError today; fall back to an
	// uncached lookup if that ever diversifies.
	if kind == detect.SigAppError {
		return k.counter(&k.sigAppC, "kvdb_signals_total", obs.L("kind", kind.String()))
	}
	return k.reg.Counter("kvdb_signals_total", obs.L("kind", kind.String()))
}

func (k *kvInstruments) reads(result string) *obs.Counter {
	switch result {
	case "ok":
		return k.counter(&k.readsOKC, "kvdb_reads_total", obs.L("result", "ok"))
	case "retried":
		return k.counter(&k.readsRetryC, "kvdb_reads_total", obs.L("result", "retried"))
	case "repaired":
		return k.counter(&k.readsRepairC, "kvdb_reads_total", obs.L("result", "repaired"))
	case "degraded":
		return k.counter(&k.readsDegradedC, "kvdb_reads_total", obs.L("result", "degraded"))
	case "not-found":
		return k.counter(&k.readsNotFoundC, "kvdb_reads_total", obs.L("result", "not-found"))
	default:
		return k.counter(&k.readsErrorC, "kvdb_reads_total", obs.L("result", result))
	}
}

func (k *kvInstruments) attempts() *obs.Histogram {
	if h := k.attemptsH.Load(); h != nil {
		return h
	}
	h := k.reg.HistogramBuckets("kvdb_read_attempts", readAttemptBuckets)
	k.attemptsH.Store(h)
	return h
}

// signalQueue is the bounded async signal buffer: emits append under a
// short mutex, a single background flusher drains the whole buffer as one
// batch per wakeup (ceereportd's ingest-queue shape), overflow is shed by
// the producer. One condition variable covers both directions — producers
// waking the flusher and the flusher waking Flush waiters — with every
// state change broadcasting.
type signalQueue struct {
	t          *TolerantDB
	mu         sync.Mutex
	cond       *sync.Cond
	buf        []detect.Signal
	capacity   int
	closed     bool
	delivering bool
	done       chan struct{}
}

func newSignalQueue(t *TolerantDB, capacity int) *signalQueue {
	q := &signalQueue{t: t, capacity: capacity, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go q.run()
	return q
}

// offer enqueues one signal; false means the queue is full (or closed)
// and the signal was shed.
func (q *signalQueue) offer(sig detect.Signal) bool {
	q.mu.Lock()
	if q.closed || len(q.buf) >= q.capacity {
		q.mu.Unlock()
		return false
	}
	q.buf = append(q.buf, sig)
	q.cond.Broadcast()
	q.mu.Unlock()
	return true
}

func (q *signalQueue) run() {
	defer close(q.done)
	q.mu.Lock()
	for {
		for len(q.buf) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.buf) == 0 {
			q.mu.Unlock()
			return // closed and drained
		}
		batch := q.buf
		q.buf = nil
		q.delivering = true
		q.mu.Unlock()
		q.t.deliver(batch)
		q.mu.Lock()
		q.delivering = false
		q.cond.Broadcast()
	}
}

// flush blocks until the queue is empty and no delivery is in flight.
func (q *signalQueue) flush() {
	q.mu.Lock()
	for len(q.buf) > 0 || q.delivering {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// close drains outstanding signals and stops the flusher.
func (q *signalQueue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.cond.Broadcast()
	}
	q.mu.Unlock()
	<-q.done
}
