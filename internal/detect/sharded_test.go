package detect

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/simtime"
)

// shardedSignals builds a mixed workload: concentrated CEE-style reports on
// a few cores, diffuse software-bug-style noise, and machine-level signals,
// spread over enough machines to populate every shard.
func shardedSignals() []Signal {
	var sigs []Signal
	day := func(d int) simtime.Time { return simtime.Time(d) * simtime.Day }
	for i := 0; i < 64; i++ {
		m := fmt.Sprintf("m%05d", i)
		// Concentrated reports on core i%8 for every fourth machine.
		if i%4 == 0 {
			for r := 0; r < 6; r++ {
				sigs = append(sigs, Signal{Machine: m, Core: i % 8, Kind: SigCrash, Time: day(r)})
			}
		}
		// Diffuse noise across cores.
		sigs = append(sigs,
			Signal{Machine: m, Core: (i * 3) % 16, Kind: SigAppError, Time: day(i % 5)},
			Signal{Machine: m, Core: (i * 7) % 16, Kind: SigSanitizer, Time: day(i % 3)},
			Signal{Machine: m, Core: -1, Kind: SigMCE, Time: day(1)},
		)
	}
	return sigs
}

// TestShardedEquivalence feeds the same multiset of signals to a plain
// Tracker and a ShardedTracker and asserts identical nominations, census,
// and per-machine counts — including after Forget/ForgetCore.
func TestShardedEquivalence(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		sigs := shardedSignals()
		plain := NewTracker(16)
		sharded := NewShardedTracker(16, shards)
		plain.AddBatch(sigs)
		sharded.AddBatch(sigs)

		if got, want := sharded.ReportingMachines(), plain.ReportingMachines(); got != want {
			t.Fatalf("shards=%d: ReportingMachines %d, want %d", shards, got, want)
		}
		for i := 0; i < 64; i++ {
			m := fmt.Sprintf("m%05d", i)
			if got, want := sharded.shardFor(m).t.Reports(m), plain.Reports(m); got != want {
				t.Fatalf("shards=%d: Reports(%s) %d, want %d", shards, m, got, want)
			}
		}
		if got, want := sharded.Suspects(), plain.Suspects(); !suspectsEqual(got, want) {
			t.Fatalf("shards=%d: suspects diverge:\n got %+v\nwant %+v", shards, got, want)
		}

		plain.Forget("m00000")
		sharded.Forget("m00000")
		plain.ForgetCore("m00004", 4)
		sharded.ForgetCore("m00004", 4)
		if got, want := sharded.Suspects(), plain.Suspects(); !suspectsEqual(got, want) {
			t.Fatalf("shards=%d: suspects diverge after forget", shards)
		}
	}
}

// TestShardedOrderInsensitive checks concurrent sharded ingest lands on the
// same state as serial ingest: suspect nomination is a multiset function,
// so interleaving across shards must not change the outcome.
func TestShardedOrderInsensitive(t *testing.T) {
	sigs := shardedSignals()
	serial := NewShardedTracker(16, 8)
	serial.AddBatch(sigs)

	concurrent := NewShardedTracker(16, 8)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sigs); i += workers {
				concurrent.Add(sigs[i])
			}
		}(w)
	}
	// Concurrent readers exercise the shard locks under -race.
	wg.Add(2)
	go func() { defer wg.Done(); _ = concurrent.Suspects() }()
	go func() { defer wg.Done(); _ = concurrent.ReportingMachines() }()
	wg.Wait()

	if got, want := concurrent.Suspects(), serial.Suspects(); !suspectsEqual(got, want) {
		t.Fatalf("concurrent ingest diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestShardedBatchGrouping(t *testing.T) {
	// A batch alternating between shards exercises the flush-per-run path.
	var sigs []Signal
	for r := 0; r < 3; r++ {
		for i := 0; i < 10; i++ {
			sigs = append(sigs, Signal{Machine: fmt.Sprintf("m%05d", i), Core: 2, Kind: SigCrash})
		}
	}
	sharded := NewShardedTracker(16, 4)
	sharded.AddBatch(sigs)
	plain := NewTracker(16)
	plain.AddBatch(sigs)
	if got, want := sharded.Suspects(), plain.Suspects(); !suspectsEqual(got, want) {
		t.Fatalf("batched ingest diverged:\n got %+v\nwant %+v", got, want)
	}
}

func suspectsEqual(a, b []Suspect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Machine != y.Machine || x.Core != y.Core || x.Reports != y.Reports ||
			x.PValue != y.PValue || x.Gini != y.Gini || x.First != y.First || x.Last != y.Last {
			return false
		}
		if len(x.Kinds) != len(y.Kinds) {
			return false
		}
		for k, v := range x.Kinds {
			if y.Kinds[k] != v {
				return false
			}
		}
	}
	return true
}
