package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
)

// otherShardKey returns a key hashing to a different storage shard than
// ref (so a test can prove shard independence explicitly).
func otherShardKey(t *testing.T, ref string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("cold%04d", i)
		if shardIndex(k) != shardIndex(ref) {
			return k
		}
	}
	t.Fatal("no key in another shard within 1000 tries")
	return ""
}

// TestBackoffDoesNotBlockConcurrentReaders is the regression test for the
// lock-held-backoff bug: the historical store slept its retry backoff
// while holding the global mutex, so one corrupt row with a nonzero
// RetryBackoff stalled every other reader for the full backoff ladder.
// Here a reader backs off for ~360ms on a fully corrupt row while a
// second reader completes hundreds of healthy reads in a different shard;
// the healthy reader must finish well inside the first sleep.
func TestBackoffDoesNotBlockConcurrentReaders(t *testing.T) {
	db, _ := New(healthyReplica("r0", 1), healthyReplica("r1", 2), healthyReplica("r2", 3))
	firstSleep := make(chan struct{})
	var once sync.Once
	tdb := NewTolerant(db, TolerantConfig{
		MaxRetries:   2,
		RetryBackoff: 120 * time.Millisecond,
		MaxBackoff:   240 * time.Millisecond,
		sleep: func(d time.Duration) {
			once.Do(func() { close(firstSleep) })
			time.Sleep(d)
		},
	})
	hot := "hotrow"
	cold := otherShardKey(t, hot)
	tdb.Put(hot, []byte("hot payload bytes"))
	tdb.Put(cold, []byte("cold payload bytes"))
	// Corrupt the hot row on every replica so the read walks the whole
	// retry ladder (two backoffs: 120ms + 240ms) and ends in ErrCorrupt.
	for _, r := range db.replicas {
		flipStored(r, hot, 0, 0xFF)
	}

	hotDone := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := tdb.Get(hot)
		hotDone <- err
	}()

	<-firstSleep // the hot read is now inside its first backoff sleep
	const coldReads = 200
	for i := 0; i < coldReads; i++ {
		if _, err := tdb.Get(cold); err != nil {
			t.Fatalf("cold read %d: %v", i, err)
		}
	}
	coldElapsed := time.Since(start)

	err := <-hotDone
	hotElapsed := time.Since(start)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hot read err = %v, want ErrCorrupt", err)
	}
	if hotElapsed < 360*time.Millisecond {
		t.Fatalf("hot read finished in %v, expected >= 360ms of backoff", hotElapsed)
	}
	// The healthy reader ran entirely inside the hot read's backoff
	// window. 100ms for 200 in-memory reads is an enormous margin; with
	// the old lock-held backoff this took the full ladder (360ms+).
	if coldElapsed > 100*time.Millisecond {
		t.Fatalf("%d healthy reads took %v during a backoff; reader was stalled", coldReads, coldElapsed)
	}
	if st := tdb.Stats(); st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
}

// TestPickCursorOverflow pre-sets the round-robin cursor to the int
// boundaries: the historical ever-growing cursor overflowed, went
// negative, and panicked on replicas[negative]. pick must renormalize and
// keep serving in rotation.
func TestPickCursorOverflow(t *testing.T) {
	db, _ := New(healthyReplica("r0", 1), healthyReplica("r1", 2), healthyReplica("r2", 3))
	db.Put("k", []byte("v"))
	for _, start := range []int{math.MaxInt, math.MaxInt - 1, math.MinInt, math.MinInt + 1, -1} {
		db.next = start
		for i := 0; i < 7; i++ {
			if _, err := db.Get("k"); err != nil {
				t.Fatalf("cursor=%d read %d: %v", start, i, err)
			}
			if db.next < 0 || db.next > len(db.replicas) {
				t.Fatalf("cursor=%d left db.next=%d out of range", start, db.next)
			}
		}
	}
	// The rotation sequence is the same modular walk the unbounded cursor
	// produced: from next=1 the picks go r1, r2, r0, r1...
	db.next = 1
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, db.pick().ID)
	}
	if want := []string{"r1", "r2", "r0", "r1"}; !equalStrings(ids, want) {
		t.Fatalf("rotation = %v, want %v", ids, want)
	}
}

// TestTolerantCursorOverflow does the same for the tolerant layer's own
// atomic cursor.
func TestTolerantCursorOverflow(t *testing.T) {
	db, _ := New(healthyReplica("r0", 1), healthyReplica("r1", 2), healthyReplica("r2", 3))
	tdb := NewTolerant(db, TolerantConfig{})
	tdb.Put("k", []byte("v"))
	for _, start := range []int64{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1, -1} {
		tdb.cursor.Store(start)
		for i := 0; i < 7; i++ {
			if v, err := tdb.Get("k"); err != nil || !bytes.Equal(v, []byte("v")) {
				t.Fatalf("cursor=%d read %d: %q, %v", start, i, v, err)
			}
			if c := tdb.cursor.Load(); c < 0 || c >= int64(len(db.replicas)) {
				t.Fatalf("cursor=%d left cursor=%d out of range", start, c)
			}
		}
	}
}

// TestBackoffDelayClamped covers the shift-overflow satellite: doubling by
// the raw retry count overflowed time.Duration and skipped the sleep;
// backoffDelay must saturate at the cap for any retry count.
func TestBackoffDelayClamped(t *testing.T) {
	tdb := NewTolerant(mustTestDB(t), TolerantConfig{
		RetryBackoff: 10 * time.Millisecond,
		MaxBackoff:   time.Hour,
	})
	for retry, want := range map[int]time.Duration{
		0: 10 * time.Millisecond,
		1: 20 * time.Millisecond,
		5: 320 * time.Millisecond,
	} {
		if got := tdb.backoffDelay(retry); got != want {
			t.Fatalf("backoffDelay(%d) = %v, want %v", retry, got, want)
		}
	}
	// Shifts past 63 bits historically went negative; now they clamp.
	for _, retry := range []int{40, 63, 64, 100, 1 << 20} {
		if got := tdb.backoffDelay(retry); got != time.Hour {
			t.Fatalf("backoffDelay(%d) = %v, want clamp at %v", retry, got, time.Hour)
		}
	}
	// Default cap (8x base) with a huge retry count.
	tdb2 := NewTolerant(mustTestDB(t), TolerantConfig{RetryBackoff: time.Millisecond})
	if got := tdb2.backoffDelay(1000); got != 8*time.Millisecond {
		t.Fatalf("default-cap backoffDelay(1000) = %v, want 8ms", got)
	}
	// A cap near the Duration ceiling must still terminate and stay positive.
	tdb3 := NewTolerant(mustTestDB(t), TolerantConfig{
		RetryBackoff: time.Nanosecond,
		MaxBackoff:   math.MaxInt64,
	})
	if got := tdb3.backoffDelay(200); got <= 0 {
		t.Fatalf("ceiling-cap backoffDelay(200) = %v, want positive", got)
	}
}

// TestConcurrentInPlaceOverwrites races same-length Puts, which overwrite
// each record's bytes in place, against Gets and index queries on the same
// rows. Every read must return one whole version of the row — never a torn
// mix or a checksum failure — and the records must still be the ones the
// first write allocated. Run it under -race.
func TestConcurrentInPlaceOverwrites(t *testing.T) {
	db := mustTestDB(t)
	tdb := NewTolerant(db, TolerantConfig{})
	const keys = 8
	version := func(k, n int) []byte { return []byte(fmt.Sprintf("row%d-version-%08d", k, n)) }
	for k := 0; k < keys; k++ {
		tdb.Put(fmt.Sprintf("k%d", k), version(k, 0))
	}
	first := make([]*record, keys)
	for k := range first {
		first[k] = db.replicas[0].row(fmt.Sprintf("k%d", k))
	}

	const writers, readers, opsEach = 2, 4, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= opsEach; i++ {
				k := (w + i) % keys
				tdb.Put(fmt.Sprintf("k%d", k), version(k, w*opsEach+i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := (r*3 + i) % keys
				v, err := tdb.Get(fmt.Sprintf("k%d", k))
				if err != nil || len(v) != len(version(k, 0)) || !bytes.HasPrefix(v, []byte(fmt.Sprintf("row%d-version-", k))) {
					t.Errorf("Get k%d = %q, %v: want one whole version", k, v, err)
					return
				}
				if i%16 == 0 {
					tdb.QueryByValue(v)
				}
			}
		}(r)
	}
	wg.Wait()

	if s := tdb.Stats(); s.Retries != 0 || s.Repairs != 0 || s.Errors != 0 {
		t.Fatalf("stats %+v: a healthy store retried, repaired or failed", s)
	}
	for k := range first {
		key := fmt.Sprintf("k%d", k)
		if db.replicas[0].row(key) != first[k] {
			t.Fatalf("%s: record replaced, want overwritten in place", key)
		}
		v, err := tdb.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if got := tdb.QueryByValue(v); len(got) != 1 || got[0] != key {
			t.Fatalf("QueryByValue(%q) = %v, want [%s]", v, got, key)
		}
	}
}

func mustTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := New(healthyReplica("r0", 1), healthyReplica("r1", 2), healthyReplica("r2", 3))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestShardedStressStatsReconcile hammers the sharded store from many
// goroutines — mixed Get/GetTraced/Put/QueryByValue against a replica set
// that includes a deterministically corrupt core — and then reconciles
// every ledger: client op counts, sink deliveries, and the metrics
// registry must all agree. Run under -race this is also the memory-model
// proof for the sharded design.
func TestShardedStressStatsReconcile(t *testing.T) {
	bad := stuckBitReplica("bad", 1).Locate("m0", 2)
	db, _ := New(bad, healthyReplica("g1", 2).Locate("m1", 0), healthyReplica("g2", 3).Locate("m2", 0))
	var cs collectSink
	reg := obs.NewRegistry()
	tdb := NewTolerant(db, TolerantConfig{Sink: cs.sink, Metrics: reg})
	val := bit3Payload()
	const keys = 16
	for i := 0; i < keys; i++ {
		tdb.Put(fmt.Sprintf("k%02d", i), val)
	}

	const workers = 8
	const opsEach = 300
	var wantReads, wantWrites, wantQueries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("k%02d", (w*7+i)%keys)
				switch i % 8 {
				case 0:
					tdb.Put(key, val)
					wantWrites.Add(1)
				case 1:
					tdb.QueryByValue(val)
					wantQueries.Add(1)
				case 2:
					tdb.Stats()
					tdb.SuspectRows()
					tdb.RowSuspect(key)
				case 3:
					v, info, err := tdb.GetTraced(key)
					if err != nil || !bytes.Equal(v, val) {
						t.Errorf("traced get %s: %v (result %s)", key, err, info.Result)
					}
					if info.Attempts < 1 || info.Result == "" {
						t.Errorf("traced get %s: empty trace %+v", key, info)
					}
					wantReads.Add(1)
				default:
					if v, err := tdb.Get(key); err != nil || !bytes.Equal(v, val) {
						t.Errorf("get %s: %v", key, err)
					}
					wantReads.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	st := tdb.Stats()
	if got, want := st.Reads, int(wantReads.Load()); got != want {
		t.Fatalf("Reads = %d, want %d", got, want)
	}
	if got, want := st.Writes, int(wantWrites.Load())+keys; got != want {
		t.Fatalf("Writes = %d, want %d", got, want)
	}
	if got, want := st.IndexQueries, int(wantQueries.Load()); got != want {
		t.Fatalf("IndexQueries = %d, want %d", got, want)
	}
	if st.SignalsSent != len(cs.all()) {
		t.Fatalf("SignalsSent = %d, sink saw %d", st.SignalsSent, len(cs.all()))
	}
	if st.SignalsDropped != 0 || st.SignalsShed != 0 {
		t.Fatalf("lossless sink recorded losses: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("client-visible errors under stress: %+v", st)
	}
	reconcileRegistry(t, reg, st)
	// The mirrored db.Stats ledger agrees with the tolerant one.
	if db.Stats.Reads != st.Reads || db.Stats.Writes != st.Writes {
		t.Fatalf("db.Stats (%d reads, %d writes) diverged from tolerant (%d, %d)",
			db.Stats.Reads, db.Stats.Writes, st.Reads, st.Writes)
	}
}

// reconcileRegistry requires every serving counter of the stats ledger to
// equal its metrics series, summed over labels, and the read-attempt
// histogram to hold one observation per read.
func reconcileRegistry(t *testing.T, reg *obs.Registry, st TolerantStats) {
	t.Helper()
	snap := map[string]float64{}
	var attempts uint64
	for _, s := range reg.Snapshot() {
		if s.Kind == "histogram" {
			attempts = s.Count
			continue
		}
		snap[s.Name] += s.Value
	}
	for _, c := range []struct {
		series string
		stat   int
	}{
		{"kvdb_writes_total", st.Writes},
		{"kvdb_reads_total", st.Reads},
		{"kvdb_read_retries_total", st.Retries},
		{"kvdb_signals_total", st.SignalsSent},
		{"kvdb_read_repairs_total", st.Repairs},
		{"kvdb_degraded_serves_total", st.DegradedServes},
		{"kvdb_read_errors_total", st.Errors},
	} {
		if got := int(snap[c.series]); got != c.stat {
			t.Errorf("%s = %d, stats %d", c.series, got, c.stat)
		}
	}
	if attempts != uint64(st.Reads) {
		t.Errorf("kvdb_read_attempts count = %d, reads %d", attempts, st.Reads)
	}
}

// TestMitigationStatsReconcile drives a store through every rung of the
// mitigation ladder the stress test never reaches — read repair, a
// degraded (no-majority) serve and a client-visible error — and
// reconciles those counters with the registry too. Without retries, a
// read whose first replica fails its checksum escalates straight to
// repair; three reads of a key start once on each replica.
func TestMitigationStatsReconcile(t *testing.T) {
	bad := stuckBitReplica("bad", 1)
	g1, g2 := healthyReplica("g1", 2), healthyReplica("g2", 3)
	db, _ := New(bad, g1, g2)
	reg := obs.NewRegistry()
	tdb := NewTolerant(db, TolerantConfig{MaxRetries: -1, Metrics: reg})
	// "repair": only the stuck-bit replica is corrupt; the healthy pair
	// outvotes it.
	tdb.Put("repair", bit3Payload())
	// "split": the healthy replicas hold different valid values.
	tdb.Put("split", bit3Payload())
	g1.apply("split", newWrite(bytes.Repeat([]byte("A"), 32)))
	g2.apply("split", newWrite(bytes.Repeat([]byte("B"), 32)))
	// "lost": every replica's copy fails its checksum.
	tdb.Put("lost", bit3Payload())
	flipStored(g1, "lost", 0, 0xFF)
	flipStored(g2, "lost", 0, 0xFF)
	for _, key := range []string{"repair", "split", "lost"} {
		for i := 0; i < 3; i++ {
			tdb.Get(key)
		}
	}
	st := tdb.Stats()
	if st.Repairs == 0 || st.DegradedServes == 0 || st.Errors == 0 {
		t.Fatalf("ladder not exercised: %+v", st)
	}
	reconcileRegistry(t, reg, st)
}

// TestAsyncSignalQueueShedsAndFlushes drives the bounded async signal
// queue through its full lifecycle: delivery in order, overflow shedding,
// Flush barriers, and post-Close shedding.
func TestAsyncSignalQueueShedsAndFlushes(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	var mu sync.Mutex
	var got []string
	sink := func(sig detect.Signal) error {
		entered <- struct{}{}
		<-release
		mu.Lock()
		got = append(got, sig.Detail)
		mu.Unlock()
		return nil
	}
	db := mustTestDB(t)
	tdb := NewTolerant(db, TolerantConfig{Sink: sink, SignalQueue: 2})
	r := db.replicas[0]

	tdb.emit(r, "s1") // drained immediately; sink blocks on release
	<-entered         // flusher is now inside the sink, queue empty
	tdb.emit(r, "s2")
	tdb.emit(r, "s3") // queue now at capacity 2
	tdb.emit(r, "s4") // shed
	if st := tdb.Stats(); st.SignalsShed != 1 {
		t.Fatalf("SignalsShed = %d, want 1", st.SignalsShed)
	}
	close(release)
	tdb.Flush()
	st := tdb.Stats()
	if st.SignalsSent != 3 {
		t.Fatalf("SignalsSent = %d, want 3", st.SignalsSent)
	}
	mu.Lock()
	order := append([]string(nil), got...)
	mu.Unlock()
	if want := []string{"s1", "s2", "s3"}; !equalStrings(order, want) {
		t.Fatalf("delivery order = %v, want %v", order, want)
	}
	tdb.Close()
	tdb.emit(r, "s5") // queue closed: shed, not delivered
	if st := tdb.Stats(); st.SignalsShed != 2 || st.SignalsSent != 3 {
		t.Fatalf("post-close stats = %+v", st)
	}
}

// TestAsyncQueuePrefersBatchSink checks the flusher hands a drained
// buffer to the batch sink in one call, in emission order.
func TestAsyncQueuePrefersBatchSink(t *testing.T) {
	var mu sync.Mutex
	var batches [][]string
	bs := func(sigs []detect.Signal) error {
		details := make([]string, len(sigs))
		for i, s := range sigs {
			details[i] = s.Detail
		}
		mu.Lock()
		batches = append(batches, details)
		mu.Unlock()
		return nil
	}
	db := mustTestDB(t)
	tdb := NewTolerant(db, TolerantConfig{BatchSink: bs, SignalQueue: 64})
	r := db.replicas[0]
	for i := 0; i < 5; i++ {
		tdb.emit(r, fmt.Sprintf("b%d", i))
	}
	tdb.Close()
	if st := tdb.Stats(); st.SignalsSent != 5 || st.SignalsShed != 0 {
		t.Fatalf("stats = %+v, want 5 sent", st)
	}
	mu.Lock()
	defer mu.Unlock()
	var flat []string
	for _, b := range batches {
		flat = append(flat, b...)
	}
	if want := []string{"b0", "b1", "b2", "b3", "b4"}; !equalStrings(flat, want) {
		t.Fatalf("batched delivery = %v (batches %v), want %v", flat, batches, want)
	}
}
