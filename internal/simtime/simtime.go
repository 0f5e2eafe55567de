// Package simtime provides the discrete-event clock used by the fleet
// simulator. Time is a simulated duration since fleet epoch, not wall time;
// the event queue is a binary heap keyed by (time, sequence) so that events
// scheduled for the same instant fire in scheduling order, which keeps the
// whole simulation deterministic.
package simtime

import "container/heap"

// Time is simulated time in seconds since the simulation epoch.
type Time float64

// Common durations in seconds.
const (
	Second Time = 1
	Minute      = 60 * Second
	Hour        = 60 * Minute
	Day         = 24 * Hour
	Year        = 365 * Day
)

// Days returns the time as a floating-point number of days.
func (t Time) Days() float64 { return float64(t / Day) }

// Hours returns the time as a floating-point number of hours.
func (t Time) Hours() float64 { return float64(t / Hour) }

// Event is a scheduled callback.
type event struct {
	at   Time
	seq  uint64
	fn   func(Time)
	dead bool
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct{ ev *event }

// Cancel marks the event dead; it will be skipped when popped. Cancelling
// an already-fired or already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil {
		h.ev.dead = true
	}
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Clock is a discrete-event simulation clock. The zero value is ready to
// use and starts at time 0.
type Clock struct {
	now  Time
	seq  uint64
	heap eventHeap
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// At schedules fn to run at absolute time at. Scheduling in the past (or
// at the current instant) fires on the next step. Returns a Handle that can
// cancel the event.
func (c *Clock) At(at Time, fn func(Time)) Handle {
	if at < c.now {
		at = c.now
	}
	ev := &event{at: at, seq: c.seq, fn: fn}
	c.seq++
	heap.Push(&c.heap, ev)
	return Handle{ev}
}

// After schedules fn to run d after the current time.
func (c *Clock) After(d Time, fn func(Time)) Handle {
	return c.At(c.now+d, fn)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned cancel function is called. fn may reschedule or cancel
// freely.
func (c *Clock) Every(period Time, fn func(Time)) (cancel func()) {
	stopped := false
	var schedule func()
	schedule = func() {
		c.After(period, func(t Time) {
			if stopped {
				return
			}
			fn(t)
			if !stopped {
				schedule()
			}
		})
	}
	schedule()
	return func() { stopped = true }
}

// Pending returns the number of events in the queue, including cancelled
// events that have not yet been popped.
func (c *Clock) Pending() int { return len(c.heap) }

// Step pops and runs the next live event, advancing the clock to its time.
// It returns false if no live events remain.
func (c *Clock) Step() bool {
	for len(c.heap) > 0 {
		ev := heap.Pop(&c.heap).(*event)
		if ev.dead {
			continue
		}
		c.now = ev.at
		ev.fn(c.now)
		return true
	}
	return false
}

// RunUntil runs events until the queue is empty or the next event is after
// deadline; the clock ends at min(deadline, last event time) — always
// exactly deadline if any event at or beyond it remained unscheduled time.
func (c *Clock) RunUntil(deadline Time) {
	for len(c.heap) > 0 {
		// Peek.
		next := c.heap[0]
		if next.dead {
			heap.Pop(&c.heap)
			continue
		}
		if next.at > deadline {
			break
		}
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// Run runs all events to exhaustion.
func (c *Clock) Run() {
	for c.Step() {
	}
}
