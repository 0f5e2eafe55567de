package backoff

import (
	"math"
	"testing"
	"time"
)

func TestDelay(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name      string
		base, max time.Duration
		retry     int
		want      time.Duration
	}{
		{"base", 10 * ms, time.Hour, 0, 10 * ms},
		{"doubles once", 10 * ms, time.Hour, 1, 20 * ms},
		{"doubles stepwise", 10 * ms, time.Hour, 5, 320 * ms},
		{"clamps at max", 10 * ms, 30 * ms, 2, 30 * ms},
		{"clamps far past max", 10 * ms, 30 * ms, 1000, 30 * ms},
		{"base above max", time.Second, 30 * ms, 0, 30 * ms},
		{"zero base disables", 0, time.Hour, 5, 0},
		{"negative base disables", -ms, time.Hour, 5, 0},
		// Past 63 doublings the shift historically went negative.
		{"retry 62 below ceiling", time.Nanosecond, math.MaxInt64, 62, 1 << 62},
		{"retry 63 overflows to max", time.Nanosecond, math.MaxInt64, 63, math.MaxInt64},
		{"retry 64 overflows to max", time.Nanosecond, math.MaxInt64, 64, math.MaxInt64},
		{"retry 1<<20 overflows to max", time.Nanosecond, math.MaxInt64, 1 << 20, math.MaxInt64},
		{"retry 63 clamps", 10 * ms, time.Hour, 63, time.Hour},
		{"retry 64 clamps", 10 * ms, time.Hour, 64, time.Hour},
		{"retry 1<<20 clamps", 10 * ms, time.Hour, 1 << 20, time.Hour},
	} {
		if got := Delay(tc.base, tc.max, tc.retry); got != tc.want {
			t.Errorf("%s: Delay(%v, %v, %d) = %v, want %v",
				tc.name, tc.base, tc.max, tc.retry, got, tc.want)
		}
	}
}
