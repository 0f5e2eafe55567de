// Package backoff holds the one retry-delay schedule every retrying
// client in the repo shares: the kvdb serving layer, the report client,
// the webhook notifier and the taskrun supervisor. Each caller keeps its
// own defaults (base, cap) and its own sleeper; only the arithmetic lives
// here.
package backoff

import "time"

// Delay returns the wait before retry number retry (0-based): base
// doubled once per completed retry, clamped at max. A non-positive base
// disables backoff and returns 0.
//
// The doubling is stepwise with an overflow check. A shift by the raw
// retry count (`base << retry`) overflows time.Duration, a signed 64-bit
// int, and goes negative — no wait at all, turning a retry loop into a hot
// spin — so an overflow saturates at max instead.
func Delay(base, max time.Duration, retry int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < retry && d < max; i++ {
		d <<= 1
		if d <= 0 { // overflowed
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}
