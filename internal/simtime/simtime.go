// Package simtime is the simulator's unit of time: a simulated duration
// since fleet epoch, not wall time.
package simtime

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
