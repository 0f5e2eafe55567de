// Package openloop issues operations on a fixed schedule, whatever the
// system under test does. Independent users do not wait for each other's
// replies, so a stall must not thin the load: every operation keeps its
// due time, the caller measures latency from that due time, and the wait
// a stall imposes on the operations queued behind it is therefore counted
// (no coordinated omission).
package openloop

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/bench/hist"
)

// Config describes one open-loop run.
type Config struct {
	// Rate is the total operations per second.
	Rate float64
	// Ops is how many operations to issue; operation i is due at
	// start + i/Rate.
	Ops int
	// Slots is the number of issuing goroutines; slot s issues operations
	// s, s+Slots, s+2*Slots, … A single issuing goroutine cannot hold a
	// few thousand operations per second against a target that sometimes
	// takes a millisecond, so operations are spread over slots.
	Slots int
	// MaxBacklog fails the run when the last tenth of the operations
	// started, at the median, later than this after they were due: the
	// generator (or the target) cannot sustain Rate and the backlog grows.
	MaxBacklog time.Duration
}

// Result reports how the generator itself behaved.
type Result struct {
	// LateNs is how long after its due time each operation started, in
	// nanoseconds (0 when on time).
	LateNs hist.H
	// Start is when operation 0 was due; Elapsed how long the run took.
	Start   time.Time
	Elapsed time.Duration
}

// ErrBacklog is returned (wrapped) when the schedule could not be held.
var ErrBacklog = errors.New("openloop: backlog grew, the offered rate was not sustained")

// Run issues cfg.Ops operations and waits for all of them. op is called
// with the issuing slot, the operation index and its due time, and should
// time itself from due. Run returns the generator's lateness and, when
// the backlog grew, an error wrapping ErrBacklog alongside the result.
func Run(cfg Config, op func(slot, i int, due time.Time)) (Result, error) {
	if cfg.Rate <= 0 || cfg.Ops <= 0 || cfg.Slots <= 0 {
		return Result{}, fmt.Errorf("openloop: rate, ops and slots must be positive (got %v, %d, %d)", cfg.Rate, cfg.Ops, cfg.Slots)
	}
	period := time.Duration(float64(time.Second) / cfg.Rate)
	tailFrom := cfg.Ops - cfg.Ops/10
	late := make([]hist.H, cfg.Slots)
	tail := make([]hist.H, cfg.Slots)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < cfg.Slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < cfg.Ops; i += cfg.Slots {
				due := start.Add(time.Duration(i) * period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lateBy := time.Since(due)
				if lateBy < 0 {
					lateBy = 0
				}
				late[s].Record(uint64(lateBy))
				if i >= tailFrom {
					tail[s].Record(uint64(lateBy))
				}
				op(s, i, due)
			}
		}(s)
	}
	wg.Wait()
	res := Result{Start: start, Elapsed: time.Since(start)}
	var tailLate hist.H
	for s := range late {
		res.LateNs.Merge(&late[s])
		tailLate.Merge(&tail[s])
	}
	if backlog := time.Duration(tailLate.Quantile(0.5)); backlog > cfg.MaxBacklog {
		return res, fmt.Errorf("%w: the last %d operations started %v late at the median (limit %v)",
			ErrBacklog, tailLate.Count(), backlog, cfg.MaxBacklog)
	}
	return res, nil
}
