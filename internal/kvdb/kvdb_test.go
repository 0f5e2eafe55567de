package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

func healthyReplica(id string, seed uint64) *Replica {
	return NewReplica(id, engine.New(fault.NewCore(id, xrand.New(seed))))
}

// flipStored XORs mask into byte i of key's stored value on replica r —
// silent storage corruption beneath the replica's checksum — and drops
// the row's cached fingerprint, which described the old bytes.
func flipStored(r *Replica, key string, i int, mask byte) {
	rec := r.row(key)
	rec.value[i] ^= mask
	r.shards[shardIndex(key)].fps[rec.slot] = 0
}

// mulDefectReplica mis-computes index fingerprints (MUL unit) at the given
// rate — the §2 database-index incident.
func mulDefectReplica(id string, seed uint64, rate float64, deterministic bool) *Replica {
	d := fault.Defect{ID: "d", Unit: fault.UnitMul, BaseRate: rate,
		Deterministic: deterministic, Kind: fault.CorruptBitFlip, BitPos: 19}
	return NewReplica(id, engine.New(fault.NewCore(id, xrand.New(seed), d)))
}

func healthyDB(t *testing.T, n int) *DB {
	t.Helper()
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = healthyReplica(fmt.Sprintf("r%d", i), uint64(i+1))
	}
	db, err := New(reps...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewRequiresReplica(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty replica set accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	db := healthyDB(t, 3)
	db.Put("user:1", []byte("alice"))
	for i := 0; i < 6; i++ { // hit every replica via round-robin
		v, err := db.Get("user:1")
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "alice" {
			t.Fatalf("v = %q", v)
		}
	}
	if db.Replicas() != 3 {
		t.Fatal("replica count wrong")
	}
}

func TestGetNotFound(t *testing.T) {
	db := healthyDB(t, 2)
	if _, err := db.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverwriteUpdatesIndex(t *testing.T) {
	db := healthyDB(t, 1)
	db.Put("k", []byte("v1"))
	db.Put("k", []byte("v2"))
	if keys := db.QueryByValue([]byte("v1")); len(keys) != 0 {
		t.Fatalf("stale index entry: %v", keys)
	}
	if keys := db.QueryByValue([]byte("v2")); len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("index = %v", keys)
	}
}

func TestIndexQueryHealthy(t *testing.T) {
	db := healthyDB(t, 3)
	db.Put("a", []byte("red"))
	db.Put("b", []byte("red"))
	db.Put("c", []byte("blue"))
	for i := 0; i < 6; i++ {
		keys := db.QueryByValue([]byte("red"))
		if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
			t.Fatalf("query %d: %v", i, keys)
		}
	}
}

func TestReplicaDependentIndexCorruption(t *testing.T) {
	// The §2 incident: one replica's core intermittently corrupts the
	// fingerprint math, so index queries fail only when that replica
	// serves them — round-robin makes the failure non-deterministic from
	// the client's viewpoint. (A fully deterministic defect would be
	// self-consistent between index build and query and thus invisible —
	// the fault model reproduces that too.)
	bad := mulDefectReplica("bad", 10, 0.3, false)
	good1 := healthyReplica("g1", 11)
	good2 := healthyReplica("g2", 12)
	db, _ := New(bad, good1, good2)
	db.Put("a", []byte("red"))
	db.Put("b", []byte("blue"))

	wrong, right := 0, 0
	for i := 0; i < 30; i++ {
		keys := db.QueryByValue([]byte("red"))
		if len(keys) == 1 && keys[0] == "a" {
			right++
		} else {
			wrong++
		}
	}
	if wrong == 0 {
		t.Fatal("defective replica never corrupted a query")
	}
	if right == 0 {
		t.Fatal("healthy replicas never served a correct query")
	}
	// Corrupted queries should be roughly 1/3 of the total (round-robin
	// over 3 replicas). Allow slack: either miss on write or on read
	// fingerprints can change the exact pattern.
	if wrong < 5 || wrong > 25 {
		t.Fatalf("wrong=%d right=%d; expected replica-proportional mix", wrong, right)
	}
}

func TestIndexComparisonCatchesDivergence(t *testing.T) {
	bad := mulDefectReplica("bad", 13, 0.3, false)
	good := healthyReplica("good", 14)
	db, _ := New(bad, good)
	db.Put("a", []byte("red"))
	caught := false
	for i := 0; i < 10 && !caught; i++ {
		_, err := db.QueryByValueCompared([]byte("red"))
		caught = errors.Is(err, ErrDivergent)
	}
	if !caught {
		t.Fatal("index comparison never caught the divergence")
	}
	if db.Stats.IndexDivergence == 0 {
		t.Fatalf("stats = %+v", db.Stats)
	}
}

func TestRecordChecksumCatchesCopyCorruption(t *testing.T) {
	// A replica whose copy path corrupts data: the record checksum
	// catches it at read time. A stuck bit (idempotent) is used rather
	// than a bit flip, because a deterministic flip applied on both the
	// write copy and the read copy cancels itself out.
	d := fault.Defect{ID: "d", Unit: fault.UnitVec, Deterministic: true,
		Kind: fault.CorruptStuckBit, BitPos: 3, StuckVal: 0}
	bad := NewReplica("bad", engine.New(fault.NewCore("bad", xrand.New(15), d)))
	db, _ := New(bad)
	// 'x' = 0x78 has bit 3 set, so sticking it at 0 changes the data.
	db.Put("k", bytes.Repeat([]byte("x"), 64))
	_, err := db.Get("k")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	if db.Stats.CorruptReads != 1 {
		t.Fatalf("stats = %+v", db.Stats)
	}
}

func TestGetComparedHealthy(t *testing.T) {
	db := healthyDB(t, 3)
	db.Put("k", []byte("value"))
	v, err := db.GetCompared("k")
	if err != nil || string(v) != "value" {
		t.Fatalf("v=%q err=%v", v, err)
	}
}

func TestGetComparedSingleReplica(t *testing.T) {
	db := healthyDB(t, 1)
	db.Put("k", []byte("v"))
	if _, err := db.GetCompared("k"); err != nil {
		t.Fatal(err)
	}
}

func TestGetComparedDetectsDivergence(t *testing.T) {
	// A replica that stored corrupt bytes *and* computed the CRC over
	// them on its own core would pass its own check; divergence
	// comparison still catches it. Build that scenario directly: apply
	// different values to each replica.
	r1 := healthyReplica("r1", 16)
	r2 := healthyReplica("r2", 17)
	db, _ := New(r1, r2)
	// Bypass DB.Put to simulate divergent state with self-consistent CRCs.
	r1.apply("k", newWrite([]byte("correct")))
	r2.apply("k", newWrite([]byte("corrupt")))
	// Fix CRCs to be self-consistent per replica (golden values).
	r1.row("k").crc = crcOf(t, []byte("correct"))
	r2.row("k").crc = crcOf(t, []byte("corrupt"))
	caught := false
	for i := 0; i < 4 && !caught; i++ {
		_, err := db.GetCompared("k")
		caught = errors.Is(err, ErrDivergent)
	}
	if !caught {
		t.Fatal("divergent replicas never detected")
	}
	if db.Stats.DivergenceCaught == 0 {
		t.Fatalf("stats = %+v", db.Stats)
	}
}

func crcOf(t *testing.T, data []byte) uint32 {
	t.Helper()
	e := engine.New(fault.NewCore("crc", xrand.New(99)))
	out := make([]byte, len(data))
	e.Copy(out, data)
	// Engine CRC on a healthy core equals golden CRC.
	return crc32cGolden(out)
}

// crc32cGolden avoids an import cycle on ecc test helpers.
func crc32cGolden(data []byte) uint32 {
	var table [256]uint32
	for i := range table {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0x82F63B78
			} else {
				crc >>= 1
			}
		}
		table[i] = crc
	}
	crc := uint32(0xFFFFFFFF)
	for _, b := range data {
		crc = crc>>8 ^ table[byte(crc)^b]
	}
	return crc ^ 0xFFFFFFFF
}

func TestGetComparedPrefersHealthyCopy(t *testing.T) {
	// One replica's read path is corrupt (checksum rejects); the
	// comparison read should still return the healthy copy.
	d := fault.Defect{ID: "d", Unit: fault.UnitVec, Deterministic: true,
		Kind: fault.CorruptBitFlip, BitPos: 3}
	good := healthyReplica("good", 18)
	db, _ := New(good, NewReplica("bad", engine.New(fault.NewCore("bad", xrand.New(19), d))))
	// Write through DB: the bad replica stores corrupt bytes, but the
	// good one is fine.
	db.Put("k", bytes.Repeat([]byte("y"), 64))
	ok := 0
	for i := 0; i < 4; i++ {
		if v, err := db.GetCompared("k"); err == nil && len(v) == 64 {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("comparison read never returned the healthy copy")
	}
}

func TestStatsCounting(t *testing.T) {
	db := healthyDB(t, 2)
	db.Put("a", []byte("1"))
	db.Get("a")
	db.Get("a")
	db.QueryByValue([]byte("1"))
	if db.Stats.Writes != 1 || db.Stats.Reads != 2 || db.Stats.IndexQueries != 1 {
		t.Fatalf("stats = %+v", db.Stats)
	}
}

func BenchmarkPutGet3Replicas(b *testing.B) {
	reps := make([]*Replica, 3)
	for i := range reps {
		reps[i] = NewReplica(fmt.Sprintf("r%d", i),
			engine.New(fault.NewCore(fmt.Sprintf("r%d", i), xrand.New(uint64(i)))))
	}
	db, _ := New(reps...)
	val := make([]byte, 256)
	for i := 0; i < b.N; i++ {
		db.Put("k", val)
		db.Get("k")
	}
}

func TestReadRepairHealsDivergentReplica(t *testing.T) {
	r1 := healthyReplica("r1", 30)
	r2 := healthyReplica("r2", 31)
	r3 := healthyReplica("r3", 32)
	db, _ := New(r1, r2, r3)
	db.Put("k", []byte("good value"))
	// Sabotage one replica with a self-consistent wrong row.
	wrong := []byte("evil value")
	r2.apply("k", newWrite(wrong))

	v, err := db.ReadRepair("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "good value" {
		t.Fatalf("repair returned %q", v)
	}
	if db.Stats.Repairs == 0 {
		t.Fatal("no repair recorded")
	}
	// The sabotaged replica must now serve the majority value.
	got, err := r2.get("k")
	if err != nil || string(got) != "good value" {
		t.Fatalf("replica not healed: %q %v", got, err)
	}
}

func TestReadRepairNoMajority(t *testing.T) {
	r1 := healthyReplica("r1", 33)
	r2 := healthyReplica("r2", 34)
	db, _ := New(r1, r2)
	a, b := []byte("one"), []byte("two")
	r1.apply("k", newWrite(a))
	r2.apply("k", newWrite(b))
	if _, err := db.ReadRepair("k"); !errors.Is(err, ErrDivergent) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRepairNotFound(t *testing.T) {
	db := healthyDB(t, 3)
	if _, err := db.ReadRepair("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRepairHealsCorruptChecksumReplica(t *testing.T) {
	r1 := healthyReplica("r1", 35)
	r2 := healthyReplica("r2", 36)
	r3 := healthyReplica("r3", 37)
	db, _ := New(r1, r2, r3)
	db.Put("k", []byte("payload"))
	// Corrupt one replica's stored bytes so its checksum fails.
	flipStored(r3, "k", 0, 0xFF)
	if _, err := r3.get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatal("sabotage did not corrupt")
	}
	if _, err := db.ReadRepair("k"); err != nil {
		t.Fatal(err)
	}
	if v, err := r3.get("k"); err != nil || string(v) != "payload" {
		t.Fatalf("corrupt replica not healed: %q %v", v, err)
	}
}

func TestCorruptReadErrorText(t *testing.T) {
	r1 := healthyReplica("r1", 21)
	db, _ := New(r1)
	db.Put("k", []byte("payload"))
	flipStored(r1, "k", 0, 0xFF)
	_, err := db.Get("k")
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrCorrupt only", err)
	}
	if got, want := err.Error(), `kvdb: record checksum mismatch: key "k" on replica r1`; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

// TestApplyOverwritesInPlace checks the write path's reuse: a same-length
// overwrite keeps the record and rewrites its bytes and checksum, a new
// length replaces the record, and the secondary index follows the value
// either way — including when two keys share a fingerprint.
func TestApplyOverwritesInPlace(t *testing.T) {
	r := healthyReplica("r0", 22)
	db, _ := New(r)
	db.Put("k", []byte("aaaa"))
	db.Put("twin", []byte("aaaa"))
	rec := r.row("k")
	db.Put("k", []byte("bbbb"))
	if r.row("k") != rec {
		t.Fatal("same-length overwrite allocated a new record")
	}
	if v, err := db.Get("k"); err != nil || string(v) != "bbbb" {
		t.Fatalf("Get after overwrite = %q, %v", v, err)
	}
	db.Put("k", []byte("cc"))
	if r.row("k") == rec {
		t.Fatal("a new length must get a new record")
	}
	if v, err := db.Get("k"); err != nil || string(v) != "cc" {
		t.Fatalf("Get after resize = %q, %v", v, err)
	}
	db.Put("twin", []byte("cc"))
	for value, want := range map[string]string{"aaaa": "[]", "bbbb": "[]", "cc": "[k twin]"} {
		if got := fmt.Sprint(db.QueryByValue([]byte(value))); got != want {
			t.Fatalf("QueryByValue(%q) = %s, want %s", value, got, want)
		}
	}
	entries := 0
	for i := range r.shards {
		for fp, set := range r.shards[i].index {
			if len(set) == 0 {
				t.Fatalf("shard %d keeps an empty index set for %#x", i, fp)
			}
			entries += len(set)
		}
	}
	if entries != 2 {
		t.Fatalf("%d index entries, want 2", entries)
	}
}
