package kvdb

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestHotPathAllocs pins the allocation budgets of the serving hot path
// on a five-replica clean store with 64-byte rows. Each budget is the
// value the change that earned it measured; a budget may fall when a
// change earns it, never rise to let one pass.
func TestHotPathAllocs(t *testing.T) {
	db := healthyDB(t, 5)
	tdb := NewTolerant(db, TolerantConfig{Metrics: obs.NewRegistry()})
	vals := [2][]byte{bytes.Repeat([]byte{0xA5}, 64), bytes.Repeat([]byte{0x5A}, 64)}
	db.Put("k", vals[0])
	flip := 0
	same := func() []byte { flip ^= 1; return vals[flip] }
	for _, c := range []struct {
		name, earnedBy string
		budget         float64
		run            func()
	}{
		{"DB.Put same length", "in-place overwrite and index-set reuse", 0, func() { db.Put("k", same()) }},
		{"DB.Get", "typed corrupt error and stack scratch: only the returned bytes", 1, func() { _, _ = db.Get("k") }},
		{"TolerantDB.Put same length", "cached metric handles over the raw write", 0, func() { tdb.Put("k", same()) }},
		{"TolerantDB.Get clean read", "DB.Get's budget: the clean path adds nothing over the raw read", 1, func() { _, _ = tdb.Get("k") }},
	} {
		if got := testing.AllocsPerRun(200, c.run); got > c.budget {
			t.Errorf("%s allocates %v per call, budget %v (earned by %s)", c.name, got, c.budget, c.earnedBy)
		}
	}
}
