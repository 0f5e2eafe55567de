package simtime

import (
	"testing"
)

func TestDurations(t *testing.T) {
	if Day != 86400*Second {
		t.Fatalf("Day = %v", Day)
	}
	if (2 * Day).Days() != 2 {
		t.Fatalf("Days() = %v", (2 * Day).Days())
	}
}
