package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestShardedCounterMergesShards(t *testing.T) {
	r := NewRegistry()
	sc := r.ShardedCounter("ops_total", 4, L("phase", "screen"))
	sc.Shard(0).Add(1)
	sc.Shard(1).Add(2)
	sc.Shard(2).Add(3)
	sc.Shard(3).Add(4)
	if got := sc.Value(); got != 10 {
		t.Fatalf("merged value = %v, want 10", got)
	}
}

func TestShardedCounterShardWraps(t *testing.T) {
	r := NewRegistry()
	sc := r.ShardedCounter("wrap_total", 3)
	// Out-of-range and negative worker ids must map to some valid shard,
	// never panic: callers pass raw worker indices.
	sc.Shard(3).Inc()
	sc.Shard(7).Inc()
	sc.Shard(-1).Inc()
	if got := sc.Value(); got != 3 {
		t.Fatalf("value = %v, want 3", got)
	}
}

func TestShardedCounterSnapshotRendersAsCounter(t *testing.T) {
	r := NewRegistry()
	r.ShardedCounter("sharded_total", 8).Shard(5).Add(7)
	r.Counter("plain_total").Add(7)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series", len(snap))
	}
	for _, s := range snap {
		if s.Kind != "counter" {
			t.Fatalf("%s rendered as %q, want counter", s.Name, s.Kind)
		}
		if s.Value != 7 {
			t.Fatalf("%s = %v, want 7", s.Name, s.Value)
		}
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "# TYPE sharded_total counter") ||
		!strings.Contains(got, "sharded_total 7") {
		t.Fatalf("exposition does not render sharded counter as counter:\n%s", got)
	}
}

func TestShardedCounterReusedAcrossLookups(t *testing.T) {
	r := NewRegistry()
	a := r.ShardedCounter("reused_total", 4)
	// A second lookup — even with a different shard request — must reuse
	// the same cells, or totals would split across duplicates.
	b := r.ShardedCounter("reused_total", 16)
	a.Shard(1).Add(2)
	b.Shard(2).Add(3)
	if a.Value() != 5 || b.Value() != 5 {
		t.Fatalf("lookups split the series: %v vs %v", a.Value(), b.Value())
	}
}

func TestShardedCounterMixingPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("first_plain_total")
	mustPanic("sharded over plain", func() { r.ShardedCounter("first_plain_total", 4) })

	r2 := NewRegistry()
	r2.ShardedCounter("first_sharded_total", 4)
	mustPanic("plain over sharded", func() { r2.Counter("first_sharded_total") })
}

func TestShardedCounterNilRegistry(t *testing.T) {
	// A nil registry hands out a detached sink, same idiom as nopCounter:
	// writes must be safe (they land nowhere observable), never panic.
	var r *Registry
	sc := r.ShardedCounter("nop_total", 4)
	sc.Shard(3).Inc()
	var nilSC *ShardedCounter
	nilSC.Shard(0).Inc()
	if nilSC.Value() != 0 {
		t.Fatal("nil ShardedCounter must read as 0")
	}
}

// TestShardedCounterConcurrent drives every shard from its own goroutine
// while a reader merges, under -race. Integral increments make the merged
// total exact regardless of interleaving once writers finish.
func TestShardedCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const shards, perShard = 8, 10000
	sc := r.ShardedCounter("race_total", shards)

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader: merge must never overshoot the writers
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := sc.Value(); v > shards*perShard {
				t.Errorf("merged value %v exceeds total written", v)
				return
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < shards; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := sc.Shard(w)
			for i := 0; i < perShard; i++ {
				c.Inc()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := sc.Value(); got != shards*perShard {
		t.Fatalf("final value = %v, want %d", got, shards*perShard)
	}
}
