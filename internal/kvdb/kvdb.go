// Package kvdb implements a miniature Spanner-style replicated key-value
// store used to reproduce two of the paper's patterns:
//
//   - §2: "database index corruption leading to some queries, depending on
//     which replica (core) serves them, being non-deterministically
//     corrupted" — each replica maintains its own secondary index with
//     fingerprints computed on that replica's core; a mercurial replica
//     mis-indexes records, so index lookups give wrong answers only when
//     that replica serves the query.
//   - §6: "other systems execute the same update logic, in parallel, at
//     several replicas ... we can exploit these dual computations to
//     detect CEEs" — reads can compare two replicas and flag divergence.
//
// Record checksums (Spanner "uses checksums in multiple ways") guard the
// value payloads; the index fingerprints are the unprotected metadata path
// that produces the replica-dependent incident.
//
// Storage is partitioned StorageShards ways by keyhash.Shard (FNV-1a) of
// the row key. DB itself is still a single-goroutine API; the partitioning
// exists so the concurrent serving layer (TolerantDB) can guard each
// partition with its own lock — shard s of every replica is owned by
// shard lock s.
package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/keyhash"
)

// Errors returned by the database.
var (
	ErrNotFound  = errors.New("kvdb: key not found")
	ErrCorrupt   = errors.New("kvdb: record checksum mismatch")
	ErrDivergent = errors.New("kvdb: replicas diverge")
)

// StorageShards is the number of key-hash partitions every replica's rows
// and secondary index are split into. It matches detect.ShardedTracker's
// shard count: enough to make lock contention negligible for tens of
// serving goroutines without fragmenting memory.
const StorageShards = 16

// shardIndex maps a row key onto its storage partition through the
// shared key-hash sharder, which inlines to a mask here.
func shardIndex(key string) int { return keyhash.Shard(key, StorageShards) }

// record is one replicated row. It stays 32 bytes: the read path walks
// records, and a 48-byte record slowed a read-mostly mix measurably.
type record struct {
	value []byte
	crc   uint32
	// slot is the row's entry in its shard's fps.
	slot uint32
}

// write is one row write as every replica receives it: the value, plus
// what the client computes from it once, natively — the record checksum
// and the value's index fingerprint.
type write struct {
	value []byte
	crc   uint32
	fp    uint64
}

func newWrite(value []byte) write {
	return write{value: value, crc: ecc.CRC32CGolden(value), fp: ecc.FNV64aGolden(value)}
}

// replicaShard is one key-hash partition of a replica's storage.
type replicaShard struct {
	rows map[string]*record
	// index maps a value fingerprint to the set of keys carrying it —
	// the secondary index whose maintenance runs on this replica's core.
	// The fingerprint is ecc.FNV64a on the replica's engine: the
	// computation the §2 incident corrupts.
	// Entries live in the shard of their KEY, so a shard lock owns both
	// the rows and the index entries it can reach from them.
	index map[uint64]map[string]bool
	// fps[rec.slot] caches FNV64aGolden(rec.value), or holds 0 for "not
	// cached" (a row whose bytes hash to 0 is simply rehashed). The cache
	// depends only on the bytes, never on the core, so it stays exact
	// across an engine rebind; apply, the only writer of record bytes,
	// keeps it in step. Only writes read it.
	fps []uint64
}

// Replica is one copy of the database bound to a serving core.
type Replica struct {
	ID     string
	Engine *engine.Engine
	// Machine and CoreIndex locate the serving core within a fleet, for
	// suspect-report attribution and health-aware replica selection.
	// CoreIndex is -1 when the replica is not bound to a fleet slot.
	Machine   string
	CoreIndex int
	// engMu serializes use of Engine: the engine is bound to a single
	// simulated core and mutates per-op state (op counts, RNG draws), so
	// concurrent readers of different shards still take turns on it.
	// Lock order: storage-shard lock (held by the caller) before engMu.
	engMu  sync.Mutex
	shards [StorageShards]replicaShard
}

// shardFPs is how many rows each shard's fingerprint cache holds before
// it first grows. The shards' initial caches share one allocation, so a
// small store does not pay a growing slice per shard.
const shardFPs = 4

// NewReplica returns an empty replica served by e.
func NewReplica(id string, e *engine.Engine) *Replica {
	r := &Replica{ID: id, Engine: e, CoreIndex: -1}
	fps := make([]uint64, StorageShards*shardFPs)
	for i := range r.shards {
		r.shards[i] = replicaShard{
			rows:  map[string]*record{},
			index: map[uint64]map[string]bool{},
			fps:   fps[i*shardFPs : i*shardFPs : (i+1)*shardFPs],
		}
	}
	return r
}

// Locate binds the replica to the (machine, core) slot its serving core
// occupies and returns the replica for chaining.
func (r *Replica) Locate(machine string, core int) *Replica {
	r.Machine = machine
	r.CoreIndex = core
	return r
}

// row returns the stored record for key, or nil (test/introspection seam;
// concurrent callers must hold the key's shard lock).
func (r *Replica) row(key string) *record {
	return r.shards[shardIndex(key)].rows[key]
}

// has reports whether the replica stores the row at all.
func (r *Replica) has(key string) bool {
	return r.row(key) != nil
}

// apply executes the update logic locally: store the row (copy through the
// replica's core) and maintain the secondary index. Engine operations run
// in the same order as the historical unsharded store — old fingerprint,
// copy, new fingerprint — so defect activation sequences are unchanged.
//
// A fingerprint on a core whose FNV runs natively (ecc.CountFNV) is a pure
// function of the bytes, so apply counts its ops and reuses a hash it
// already has: the row's cached one for the old bytes, and the write's for
// the new bytes when the copy left them equal to w.value. Only a copy that
// changed them is hashed here; an armed FNV always runs through the engine
// and leaves the row uncached.
//
// An existing row of the same length is overwritten in place, so the
// caller must hold key's shard lock exclusively (TolerantDB does for every
// write): readers copy the record's bytes out under the read lock. A new
// key or a new length gets a fresh record, and an index set emptied by the
// key's departure is reused for its new fingerprint.
func (r *Replica) apply(key string, w write) {
	sh := &r.shards[shardIndex(key)]
	r.engMu.Lock()
	defer r.engMu.Unlock()
	core := r.Engine.Core()
	rec := sh.rows[key]
	var spare map[string]bool
	if rec != nil {
		var oldFP uint64
		if !ecc.CountFNV(core, len(rec.value)) {
			oldFP = ecc.FNV64a(r.Engine, rec.value)
		} else if oldFP = sh.fps[rec.slot]; oldFP == 0 {
			oldFP = ecc.FNV64aGolden(rec.value)
		}
		if set := sh.index[oldFP]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(sh.index, oldFP)
				spare = set
			}
		}
	}
	switch {
	case rec == nil:
		rec = &record{value: make([]byte, len(w.value)), slot: uint32(len(sh.fps))}
		sh.fps = append(sh.fps, 0)
		sh.rows[key] = rec
	case len(rec.value) != len(w.value):
		rec = &record{value: make([]byte, len(w.value)), slot: rec.slot}
		sh.rows[key] = rec
	}
	r.Engine.Copy(rec.value, w.value)
	rec.crc = w.crc
	var fp, cached uint64
	if ecc.CountFNV(core, len(rec.value)) {
		fp = w.fp
		if !bytes.Equal(rec.value, w.value) {
			fp = ecc.FNV64aGolden(rec.value)
		}
		cached = fp
	} else {
		fp = ecc.FNV64a(r.Engine, rec.value)
	}
	sh.fps[rec.slot] = cached
	set := sh.index[fp]
	if set == nil {
		set = spare
		if set == nil {
			set = map[string]bool{}
		}
		sh.index[fp] = set
	}
	set[key] = true
}

// corruptError is a replica read's checksum failure. It unwraps to
// ErrCorrupt and formats its message only when Error is called, which the
// mitigation ladder never does on its way to a good replica.
type corruptError struct {
	key, replica string
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("%v: key %q on replica %s", ErrCorrupt, e.key, e.replica)
}

func (e *corruptError) Unwrap() error { return ErrCorrupt }

// get reads a row and verifies its checksum on the replica's core.
func (r *Replica) get(key string) ([]byte, error) {
	rec := r.shards[shardIndex(key)].rows[key]
	if rec == nil {
		return nil, ErrNotFound
	}
	out := make([]byte, len(rec.value))
	r.engMu.Lock()
	r.Engine.Copy(out, rec.value)
	crc := ecc.CRC32C(r.Engine, out)
	r.engMu.Unlock()
	if crc != rec.crc {
		return nil, &corruptError{key: key, replica: r.ID}
	}
	return out, nil
}

// lookupByValue answers a secondary-index query: which keys carry value?
// valueFP is FNV64aGolden(value), hashed once per query by the caller; a
// replica whose FNV runs natively counts the ops and uses it. Concurrent
// callers must hold every shard lock (the index is scanned across all
// partitions).
func (r *Replica) lookupByValue(value []byte, valueFP uint64) []string {
	r.engMu.Lock()
	fp := valueFP
	if !ecc.CountFNV(r.Engine.Core(), len(value)) {
		fp = ecc.FNV64a(r.Engine, value)
	}
	r.engMu.Unlock()
	out := []string{}
	for i := range r.shards {
		for k := range r.shards[i].index[fp] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// DB is the replicated database. Like the engines it serves from, DB is a
// single-goroutine API; TolerantDB layers locking on top.
type DB struct {
	replicas []*Replica
	// next implements round-robin replica selection for reads, the
	// "depending on which replica serves them" nondeterminism. pick keeps
	// it wrapped into [0, len(replicas)); a pre-set out-of-range value
	// (including one that overflowed int) is renormalized, never indexed.
	next int
	// Stats counts detection events.
	Stats Stats
}

// Stats tracks database-level detection accounting.
type Stats struct {
	Writes, Reads     int
	CorruptReads      int
	DivergenceCaught  int
	IndexQueries      int
	IndexDivergence   int
	Repairs           int
	ChecksumRejectsAt map[string]int
}

// New returns a database over the given replicas (at least one).
func New(replicas ...*Replica) (*DB, error) {
	if len(replicas) == 0 {
		return nil, errors.New("kvdb: need at least one replica")
	}
	return &DB{
		replicas: replicas,
		Stats:    Stats{ChecksumRejectsAt: map[string]int{}},
	}, nil
}

// Replicas returns the replica count.
func (db *DB) Replicas() int { return len(db.replicas) }

// Put writes the row through every replica's own core (parallel update
// logic, as §6 describes). The client computes the record checksum once,
// natively.
func (db *DB) Put(key string, value []byte) {
	db.Stats.Writes++
	db.putRows(key, value)
}

// putRows is Put without the stats accounting, shared with the tolerant
// layer (which owns its own stats locking).
func (db *DB) putRows(key string, value []byte) {
	w := newWrite(value)
	for _, r := range db.replicas {
		r.apply(key, w)
	}
}

// pick returns the next serving replica (round-robin). The cursor is
// renormalized before use so it can never index negatively: the historical
// ever-growing cursor overflowed int after ~2^63 reads, went negative, and
// panicked on replicas[negative]. Normalizing preserves the modular pick
// sequence exactly while keeping the stored cursor in [0, n).
func (db *DB) pick() *Replica {
	n := len(db.replicas)
	idx := db.next % n
	if idx < 0 {
		idx += n
	}
	db.next = idx + 1
	return db.replicas[idx]
}

// Get serves the read from one replica, verifying the record checksum.
func (db *DB) Get(key string) ([]byte, error) {
	db.Stats.Reads++
	v, err := db.pick().get(key)
	if errors.Is(err, ErrCorrupt) {
		db.Stats.CorruptReads++
	}
	return v, err
}

// GetCompared reads from two distinct replicas and compares — the dual-
// computation CEE detector. It returns ErrDivergent when both reads
// succeed with different bytes.
func (db *DB) GetCompared(key string) ([]byte, error) {
	db.Stats.Reads++
	if len(db.replicas) < 2 {
		v, err := db.pick().get(key)
		if errors.Is(err, ErrCorrupt) {
			db.Stats.CorruptReads++
		}
		return v, err
	}
	a := db.pick()
	b := db.pick()
	va, errA := a.get(key)
	vb, errB := b.get(key)
	switch {
	case errA == nil && errB == nil:
		if !bytes.Equal(va, vb) {
			db.Stats.DivergenceCaught++
			return nil, fmt.Errorf("%w: key %q (%s vs %s)", ErrDivergent, key, a.ID, b.ID)
		}
		return va, nil
	case errA == nil:
		if errors.Is(errB, ErrCorrupt) {
			db.Stats.CorruptReads++
		}
		return va, nil
	case errB == nil:
		if errors.Is(errA, ErrCorrupt) {
			db.Stats.CorruptReads++
		}
		return vb, nil
	default:
		return nil, errA
	}
}

// readVote is one distinct checksum-valid value observed while scanning a
// row, with the replicas that served it.
type readVote struct {
	val      []byte
	replicas []*Replica
}

// rowScan classifies a full-replica read of one row: the distinct valid
// values (in first-seen replica order), the replicas whose reads failed
// their checksum, and whether any replica stores the row at all. The
// tolerant serving layer uses the classification to attribute blame.
type rowScan struct {
	votes   []readVote
	corrupt []*Replica
	sawRow  bool
	good    int // checksum-valid reads
}

// scanRow reads the row from every replica and classifies the results. It
// records no stats: callers derive counts from the scan (len(sc.corrupt)
// corrupt reads) under whatever locking discipline they own.
func (db *DB) scanRow(key string) rowScan {
	var sc rowScan
	for _, r := range db.replicas {
		if r.has(key) {
			sc.sawRow = true
		}
		v, err := r.get(key)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				sc.corrupt = append(sc.corrupt, r)
			}
			continue
		}
		sc.good++
		matched := false
		for i := range sc.votes {
			if bytes.Equal(sc.votes[i].val, v) {
				sc.votes[i].replicas = append(sc.votes[i].replicas, r)
				matched = true
				break
			}
		}
		if !matched {
			sc.votes = append(sc.votes, readVote{val: v, replicas: []*Replica{r}})
		}
	}
	return sc
}

// ReadRepair reads the row from every replica, majority-votes the value
// (§6's dual computations, extended to healing), rewrites out-voted or
// corrupt replicas from the winner, and returns the repaired value.
//
// Replicas whose read fails its checksum are known-bad and do not vote:
// the majority is taken over the checksum-valid reads, so a row corrupted
// on all but one replica still heals from the surviving good copy. It
// returns ErrDivergent when the valid reads produce no majority, and
// ErrCorrupt when the row exists but every replica fails its checksum —
// total corruption is a CEE signal, not a missing key.
func (db *DB) ReadRepair(key string) ([]byte, error) {
	db.Stats.Reads++
	winner, sc, repaired, err := db.readRepair(key)
	db.Stats.CorruptReads += len(sc.corrupt)
	db.Stats.Repairs += repaired
	if errors.Is(err, ErrDivergent) {
		db.Stats.DivergenceCaught++
	}
	return winner, err
}

// readRepair implements ReadRepair and additionally returns the row scan
// so callers (the tolerant serving layer) can attribute blame per replica,
// plus the number of replica repairs written. It records no stats at all;
// the public entry points do, under their own locking.
func (db *DB) readRepair(key string) ([]byte, rowScan, int, error) {
	sc := db.scanRow(key)
	if !sc.sawRow {
		return nil, sc, 0, ErrNotFound
	}
	if sc.good == 0 {
		return nil, sc, 0, fmt.Errorf("%w: key %q fails checksum on all %d replicas",
			ErrCorrupt, key, len(db.replicas))
	}
	need := sc.good/2 + 1
	var winner []byte
	for _, v := range sc.votes {
		if len(v.replicas) >= need {
			winner = v.val
			break
		}
	}
	if winner == nil {
		return nil, sc, 0, fmt.Errorf("%w: no majority for key %q", ErrDivergent, key)
	}
	// Heal every replica that failed its checksum or lost the vote. The
	// repair write recomputes the row from the winner's bytes with a
	// fresh client-side checksum.
	w := newWrite(winner)
	repaired := 0
	for _, r := range db.replicas {
		v, err := r.get(key)
		if err == nil && bytes.Equal(v, winner) {
			continue
		}
		r.apply(key, w)
		repaired++
	}
	return winner, sc, repaired, nil
}

// QueryByValue answers a secondary-index query from one replica — the
// §2 incident path: on a mercurial replica the answer is wrong only when
// that replica serves the query.
func (db *DB) QueryByValue(value []byte) []string {
	db.Stats.IndexQueries++
	return db.pick().lookupByValue(value, ecc.FNV64aGolden(value))
}

// QueryByValueCompared runs the index query on two replicas and reports
// divergence — how the incident was eventually root-caused.
func (db *DB) QueryByValueCompared(value []byte) ([]string, error) {
	db.Stats.IndexQueries++
	fp := ecc.FNV64aGolden(value)
	if len(db.replicas) < 2 {
		return db.pick().lookupByValue(value, fp), nil
	}
	a := db.pick()
	b := db.pick()
	ka := a.lookupByValue(value, fp)
	kb := b.lookupByValue(value, fp)
	if !equalStrings(ka, kb) {
		db.Stats.IndexDivergence++
		return nil, fmt.Errorf("%w: index query (%s: %v vs %s: %v)",
			ErrDivergent, a.ID, ka, b.ID, kb)
	}
	return ka, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
