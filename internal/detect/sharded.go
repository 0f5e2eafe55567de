package detect

// ShardedTracker partitions signal aggregation by machine hash so that
// concurrent producers (HTTP ingest handlers, queue drainers) contend on
// a shard's lock instead of one global mutex. Every per-machine statistic
// lives entirely inside one shard — a machine's signals always hash to
// the same shard — so nomination is identical to a single Tracker fed the
// same multiset of signals, and Suspects' merged ranking is bit-identical
// (same comparator, same per-machine inputs). This is the ingest-path
// scaling step for the paper's O(100k)-machine regime: the daemon absorbs
// batched floods across shards instead of serializing on one lock.

import (
	"sync"

	"repro/internal/keyhash"
)

// DefaultTrackerShards is the shard count NewShardedTracker uses when the
// caller passes 0. Sixteen shards keep lock contention negligible for tens
// of HTTP handler goroutines without meaningfully fragmenting memory.
const DefaultTrackerShards = 16

// ShardedTracker is a Tracker partitioned by machine hash. Unlike Tracker
// it is safe for concurrent use.
type ShardedTracker struct {
	shards []trackerShard
}

type trackerShard struct {
	mu sync.Mutex
	t  *Tracker
	// pad the shard to its own cache lines so neighbouring shard locks
	// do not false-share under concurrent ingest.
	_ [40]byte
}

// NewShardedTracker returns a tracker sharded n ways (0 → the default)
// for machines with coresPerMachine cores.
func NewShardedTracker(coresPerMachine, n int) *ShardedTracker {
	if n <= 0 {
		n = DefaultTrackerShards
	}
	s := &ShardedTracker{shards: make([]trackerShard, n)}
	for i := range s.shards {
		s.shards[i].t = NewTracker(coresPerMachine)
	}
	return s
}

// shardFor hashes a machine id onto its shard with the shared key-hash
// sharder (the one kvdb partitions rows by), allocation-free per signal.
func (s *ShardedTracker) shardFor(machine string) *trackerShard {
	return &s.shards[keyhash.Shard(machine, len(s.shards))]
}

// Add ingests one signal.
func (s *ShardedTracker) Add(sig Signal) {
	sh := s.shardFor(sig.Machine)
	sh.mu.Lock()
	sh.t.Add(sig)
	sh.mu.Unlock()
}

// AddBatch ingests a buffer of signals, grouping by shard so each shard's
// lock is taken once per contiguous run instead of once per signal.
func (s *ShardedTracker) AddBatch(sigs []Signal) {
	var (
		cur   *trackerShard
		start int
	)
	flush := func(end int) {
		if cur == nil || start == end {
			return
		}
		cur.mu.Lock()
		cur.t.AddBatch(sigs[start:end])
		cur.mu.Unlock()
	}
	for i := range sigs {
		sh := s.shardFor(sigs[i].Machine)
		if sh != cur {
			flush(i)
			cur, start = sh, i
		}
	}
	flush(len(sigs))
}

// Forget drops all tracker state for a machine.
func (s *ShardedTracker) Forget(machine string) {
	sh := s.shardFor(machine)
	sh.mu.Lock()
	sh.t.Forget(machine)
	sh.mu.Unlock()
}

// ForgetCore drops tracker state for one core.
func (s *ShardedTracker) ForgetCore(machine string, core int) {
	sh := s.shardFor(machine)
	sh.mu.Lock()
	sh.t.ForgetCore(machine, core)
	sh.mu.Unlock()
}

// ReportingMachines returns the lifetime census of distinct reporting
// machines across every shard.
func (s *ShardedTracker) ReportingMachines() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.t.ReportingMachines()
		sh.mu.Unlock()
	}
	return total
}

// Suspects merges every shard's nominations into one ranking, identical
// to a single Tracker's (per-machine evaluation never crosses shards, and
// the final sort uses the same comparator).
func (s *ShardedTracker) Suspects() []Suspect {
	var out []Suspect
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.t.Suspects()...)
		sh.mu.Unlock()
	}
	sortSuspects(out)
	return out
}
