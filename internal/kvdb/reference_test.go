package kvdb

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/ecc"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// refApply is the write path before replicas shared fingerprints: both
// the old and the new fingerprint run through the replica's engine on
// every write. FuzzApplyMatchesReference holds apply to it.
func refApply(r *Replica, key string, value []byte, clientCRC uint32) {
	sh := &r.shards[shardIndex(key)]
	r.engMu.Lock()
	defer r.engMu.Unlock()
	rec := sh.rows[key]
	var spare map[string]bool
	if rec != nil {
		oldFP := ecc.FNV64a(r.Engine, rec.value)
		if set := sh.index[oldFP]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(sh.index, oldFP)
				spare = set
			}
		}
	}
	if rec == nil || len(rec.value) != len(value) {
		rec = &record{value: make([]byte, len(value))}
		sh.rows[key] = rec
	}
	r.Engine.Copy(rec.value, value)
	rec.crc = clientCRC
	fp := ecc.FNV64a(r.Engine, rec.value)
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

// refLookup is the index query before replicas shared the query value's
// fingerprint.
func refLookup(r *Replica, value []byte) []string {
	r.engMu.Lock()
	fp := ecc.FNV64a(r.Engine, value)
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

// refPut and refReadRepair are DB.Put and DB.ReadRepair over refApply.
func refPut(db *DB, key string, value []byte) {
	crc := ecc.CRC32CGolden(value)
	for _, r := range db.replicas {
		refApply(r, key, value, crc)
	}
}

func refReadRepair(db *DB, key string) ([]byte, error) {
	sc := db.scanRow(key)
	if !sc.sawRow {
		return nil, ErrNotFound
	}
	if sc.good == 0 {
		return nil, fmt.Errorf("%w: key %q fails checksum on all %d replicas",
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
		return nil, fmt.Errorf("%w: no majority for key %q", ErrDivergent, key)
	}
	crc := ecc.CRC32CGolden(winner)
	for _, r := range db.replicas {
		v, err := r.get(key)
		if err == nil && bytes.Equal(v, winner) {
			continue
		}
		refApply(r, key, winner, crc)
	}
	return winner, nil
}

// refCoreKinds are the serving cores a differential store mixes: clean,
// Copy-armed with a stuck bit (as the cee-to-cordon benchmark's replica),
// and armed on the two units FNV-1a issues ops to.
var refCoreKinds = [][]fault.Defect{
	nil,
	{{ID: "stuck", Unit: fault.UnitVec, Deterministic: true, Kind: fault.CorruptStuckBit, BitPos: 3}},
	{{ID: "logic", Unit: fault.UnitALU, BaseRate: 0.002, Kind: fault.CorruptBitFlip, BitPos: 7}},
	{{ID: "mul", Unit: fault.UnitMul, BaseRate: 0.004, Kind: fault.CorruptBitFlip, BitPos: 19}},
}

func refEngine(name string, kind int, seed uint64) *engine.Engine {
	return engine.New(fault.NewCore(name, xrand.New(seed), refCoreKinds[kind]...))
}

// refStore builds one side of the differential pair: two clean replicas
// and one of each armed kind.
func refStore(seed uint64) *DB {
	kinds := []int{0, 1, 0, 2, 3}
	reps := make([]*Replica, len(kinds))
	for i, k := range kinds {
		id := fmt.Sprintf("r%d", i)
		reps[i] = NewReplica(id, refEngine(id, k, seed+uint64(i)))
	}
	db, _ := New(reps...)
	return db
}

// nextDraw returns the next value of c's private random stream, which
// fault does not export. Drawing it on both sides keeps them in step.
func nextDraw(c *fault.Core) uint64 {
	f := reflect.ValueOf(c).Elem().FieldByName("rng")
	return (*(**xrand.RNG)(unsafe.Pointer(f.UnsafeAddr()))).Uint64()
}

// sameShard fails unless shard s holds the same rows and index on every
// replica of the two stores, and checks the fingerprint cache invariant
// on got.
func sameShard(t *testing.T, step, s int, got, want *DB) {
	t.Helper()
	for i, g := range got.replicas {
		gs, ws := &g.shards[s], &want.replicas[i].shards[s]
		if len(gs.index) != len(ws.index) || len(gs.rows) != len(ws.rows) {
			t.Fatalf("step %d: replica %s shard %d has %d fingerprints and %d rows, reference %d and %d",
				step, g.ID, s, len(gs.index), len(gs.rows), len(ws.index), len(ws.rows))
		}
		for fp, keys := range gs.index {
			if wk, ok := ws.index[fp]; !ok || !maps.Equal(keys, wk) {
				t.Fatalf("step %d: replica %s fingerprint %#x files %v, reference %v", step, g.ID, fp, keys, ws.index[fp])
			}
		}
		for k, gr := range gs.rows {
			wr := ws.rows[k]
			if wr == nil || !bytes.Equal(gr.value, wr.value) || gr.crc != wr.crc {
				t.Fatalf("step %d: replica %s row %q = %x/%#x, reference %+v", step, g.ID, k, gr.value, gr.crc, wr)
			}
			if fp := gs.fps[gr.slot]; fp != 0 && fp != ecc.FNV64aGolden(gr.value) {
				t.Fatalf("step %d: replica %s row %q caches fingerprint %#x of other bytes", step, g.ID, k, fp)
			}
		}
	}
}

// sameCores fails unless every core of the two stores stands at the same
// op and corruption counts and the same point of its random stream.
func sameCores(t *testing.T, step int, got, want *DB) {
	t.Helper()
	for i, g := range got.replicas {
		gc, wc := g.Engine.Core(), want.replicas[i].Engine.Core()
		if gc.OpCount != wc.OpCount || gc.CorruptCount != wc.CorruptCount {
			t.Fatalf("step %d: replica %s ops %v corrupt %v, reference ops %v corrupt %v",
				step, g.ID, gc.OpCount, gc.CorruptCount, wc.OpCount, wc.CorruptCount)
		}
		if gd, wd := nextDraw(gc), nextDraw(wc); gd != wd {
			t.Fatalf("step %d: replica %s next draw %#x, reference %#x", step, g.ID, gd, wd)
		}
	}
}

// FuzzApplyMatchesReference drives the same seeded history through a
// store and a twin that writes and queries with refApply and refLookup.
// After every step it requires the same answer, the same rows and index
// in the key's shard (the only one a step can change), and the same core
// counters and random streams; at the end, the same rows and index in
// every shard. Each script byte picks a step; the seed draws its keys,
// values and targets.
func FuzzApplyMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		script := make([]byte, 96)
		xrand.New(seed + 100).Bytes(script)
		f.Add(seed, script)
	}
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 96 {
			script = script[:96] // long scripts make every minimization slow
		}
		got, want := refStore(seed), refStore(seed)
		rng := xrand.New(seed)
		lengths := []int{0, 1, 8, 13, 64}
		pool := make([][]byte, 6)
		for i := range pool {
			pool[i] = make([]byte, lengths[i%len(lengths)])
			rng.Bytes(pool[i])
		}
		value := func(n int) []byte {
			v := make([]byte, n)
			rng.Bytes(v)
			return v
		}
		for step, b := range script {
			key := fmt.Sprintf("k%d", rng.Intn(5))
			ri := rng.Intn(len(got.replicas))
			var res, ref string
			switch b % 9 {
			case 0, 1: // same-length Put
				n := lengths[rng.Intn(len(lengths))]
				if rec := got.replicas[0].row(key); rec != nil {
					n = len(rec.value)
				}
				v := value(n)
				got.Put(key, v)
				refPut(want, key, v)
			case 2: // Put at a random, usually new, length
				v := value(lengths[rng.Intn(len(lengths))])
				got.Put(key, v)
				refPut(want, key, v)
			case 3: // Put a value other keys share
				v := pool[rng.Intn(len(pool))]
				got.Put(key, v)
				refPut(want, key, v)
			case 4:
				v, err := got.ReadRepair(key)
				res = fmt.Sprintf("%x %v", v, err)
				v, err = refReadRepair(want, key)
				ref = fmt.Sprintf("%x %v", v, err)
			case 5: // QueryByValue on every replica, as TolerantDB asks it
				v := pool[rng.Intn(len(pool))]
				if rec := got.replicas[ri].row(key); rec != nil && rng.Intn(2) == 0 {
					v = append([]byte(nil), rec.value...)
				}
				fp := ecc.FNV64aGolden(v)
				for i, r := range got.replicas {
					res += fmt.Sprint(r.lookupByValue(v, fp))
					ref += fmt.Sprint(refLookup(want.replicas[i], v))
				}
			case 6: // engine rebind, as the fleet's repair loop does
				kind, s := rng.Intn(len(refCoreKinds)), rng.Uint64()
				name := got.replicas[ri].ID + "-repl"
				got.replicas[ri].Engine = refEngine(name, kind, s)
				want.replicas[ri].Engine = refEngine(name, kind, s)
			case 7: // in-place flip of stored bytes
				if rec := got.replicas[ri].row(key); rec != nil && len(rec.value) > 0 {
					i, mask := rng.Intn(len(rec.value)), byte(1+rng.Intn(255))
					flipStored(got.replicas[ri], key, i, mask)
					want.replicas[ri].row(key).value[i] ^= mask // refApply keeps no cache
				}
			case 8:
				v, err := got.Get(key)
				res = fmt.Sprintf("%x %v", v, err)
				v, err = want.Get(key)
				ref = fmt.Sprintf("%x %v", v, err)
			}
			if res != ref {
				t.Fatalf("step %d (op %d, key %s): %s, reference %s", step, b%9, key, res, ref)
			}
			sameShard(t, step, shardIndex(key), got, want)
			sameCores(t, step, got, want)
		}
		for s := 0; s < StorageShards; s++ {
			sameShard(t, len(script), s, got, want)
		}
	})
}
