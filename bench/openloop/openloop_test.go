package openloop

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// A target that stalls for 50 ms must show the stall in the latency of
// every operation that was due while it lasted — not only in the one
// operation that happened to be in flight.
func TestStallIsChargedToEveryOperationDueDuringIt(t *testing.T) {
	const (
		rate  = 1000.0
		ops   = 400
		stall = 50 * time.Millisecond
	)
	var (
		mu         sync.Mutex
		stallStart time.Time
		stallEnd   time.Time
		dues       = make([]time.Time, ops)
		latency    = make([]time.Duration, ops)
	)
	res, err := Run(Config{Rate: rate, Ops: ops, Slots: 2, MaxBacklog: 20 * time.Millisecond},
		func(_, i int, due time.Time) {
			mu.Lock()
			if i == 100 {
				stallStart = time.Now()
				stallEnd = stallStart.Add(stall)
			}
			end := stallEnd
			mu.Unlock()
			// The whole target is stalled, not one slot of the generator.
			if wait := time.Until(end); wait > 0 {
				time.Sleep(wait)
			}
			mu.Lock()
			dues[i], latency[i] = due, time.Since(due)
			mu.Unlock()
		})
	if err != nil {
		t.Fatalf("one stall is not a growing backlog: %v", err)
	}
	during := 0
	for i := range dues {
		if dues[i].Before(stallStart) || !dues[i].Before(stallEnd) {
			continue
		}
		during++
		if owed := stallEnd.Sub(dues[i]); latency[i] < owed {
			t.Errorf("op %d was due %v before the stall ended but reports %v", i, owed, latency[i])
		}
	}
	if during < 40 {
		t.Fatalf("only %d operations were due during a %v stall at %v/s", during, stall, rate)
	}
	// ~50 of 400 operations started late, by up to 50 ms: p99 must say so.
	if p99 := time.Duration(res.LateNs.Quantile(0.99)); p99 < 30*time.Millisecond {
		t.Errorf("generator lateness p99 = %v, the 50 ms stall is missing from it", p99)
	}
	if res.LateNs.Count() != ops {
		t.Errorf("lateness has %d samples, want %d", res.LateNs.Count(), ops)
	}
}

func TestGrowingBacklogFailsTheRun(t *testing.T) {
	// 1000 ops/s offered to a target that takes 3 ms on one slot: it falls
	// further behind with every operation.
	_, err := Run(Config{Rate: 1000, Ops: 100, Slots: 1, MaxBacklog: 20 * time.Millisecond},
		func(int, int, time.Time) { time.Sleep(3 * time.Millisecond) })
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("got %v, want ErrBacklog", err)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Rate: 0, Ops: 1, Slots: 1}, func(int, int, time.Time) {}); err == nil {
		t.Fatal("zero rate accepted")
	}
}
