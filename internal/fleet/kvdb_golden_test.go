package fleet

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestKVDBPhaseMatchesSeedGolden pins the kvdb day phase bit-identical to
// the pre-sharding store: the FNV-64a fingerprint of the full DayStats
// stream was captured on the single-mutex TolerantDB immediately before
// the concurrent refactor, and must never drift — at any parallelism. The
// serial phase 3b drives the same engine-op order, replica-pick rotation,
// and signal-emission order through the sharded store, so detection
// outcomes (and every downstream quarantine decision) are unchanged.
func TestKVDBPhaseMatchesSeedGolden(t *testing.T) {
	golden := map[int]uint64{
		3: 0x7cfaa53146f11c3e,
		5: 0xf595d3ada6a7bf88,
	}
	for stores, want := range golden {
		for _, par := range []int{1, 4} {
			h := fnv.New64a()
			for _, d := range kvTestRunner(t, par, stores).Run(8) {
				fmt.Fprintf(h, "%+v\n", d)
			}
			if got := h.Sum64(); got != want {
				t.Errorf("stores=%d par=%d: DayStats fingerprint %#x, want seed %#x",
					stores, par, got, want)
			}
		}
	}
}
