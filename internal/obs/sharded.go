package obs

import "fmt"

// Sharded counters: per-worker counter cells merged on read.
//
// A plain Counter is lock-free but still a single cache line; when every
// worker goroutine of a sharded fleet day bumps the same hot counter per
// item, the line ping-pongs between cores and the CAS loop spins under
// contention. A ShardedCounter gives each worker its own padded cell —
// increments are uncontended — and folds the cells only when the value is
// read (snapshot/exposition), which is rare.
//
// Determinism: the fleet's counters record integral event counts. Integral
// float64 additions are exact, so the merged total does not depend on which
// worker happened to process which item — the snapshot is bit-identical at
// any parallelism, the same contract plain counters give.

// cacheLineSize is the assumed coherence-line size; cells are padded to it
// so two shards never share a line.
const cacheLineSize = 64

// counterCell is one shard, padded to a full cache line.
type counterCell struct {
	c Counter
	_ [cacheLineSize - 8]byte
}

// ShardedCounter is a monotone counter split across per-worker cells.
// Obtain one from Registry.ShardedCounter; it renders in snapshots and the
// Prometheus exposition exactly like a plain counter.
type ShardedCounter struct {
	cells []counterCell
}

func newShardedCounter(shards int) *ShardedCounter {
	if shards < 1 {
		shards = 1
	}
	return &ShardedCounter{cells: make([]counterCell, shards)}
}

// nopSharded is the detached instrument handed out by nil registries.
var nopSharded = newShardedCounter(1)

// Shard returns the cell for worker w (wrapped modulo the shard count), a
// plain *Counter the worker increments without contention. Callers obtain
// their shard once per fan-out, not per increment.
func (s *ShardedCounter) Shard(w int) *Counter {
	if s == nil {
		return nopCounter
	}
	if w < 0 {
		w = -w
	}
	return &s.cells[w%len(s.cells)].c
}

// Value returns the merged total across all shards.
func (s *ShardedCounter) Value() float64 {
	if s == nil {
		return 0
	}
	var t float64
	for i := range s.cells {
		t += s.cells[i].c.Value()
	}
	return t
}

// ShardedCounter returns the sharded counter for (name, labels), creating
// it with the given shard count on first use (later calls reuse the
// existing cells regardless of the requested count; Shard wraps modulo the
// actual count). The series registers under the "counter" kind and is
// indistinguishable from a plain counter in snapshots and exposition. A
// name/label pair must be consistently plain or sharded; mixing panics.
func (r *Registry) ShardedCounter(name string, shards int, labels ...Label) *ShardedCounter {
	if r == nil {
		return nopSharded
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kindCounter, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kindCounter {
		panic(fmt.Sprintf("obs: metric %q is a %s, requested as counter", name, f.kind))
	}
	sig := signature(labels)
	s := f.series[sig]
	if s == nil {
		s = &series{labels: sortedLabels(labels), sig: sig, sc: newShardedCounter(shards)}
		f.series[sig] = s
	}
	if s.sc == nil {
		panic(fmt.Sprintf("obs: counter %q already registered unsharded", name))
	}
	return s.sc
}
