package main

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/bench/calib"
	"repro/bench/hist"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kvdb"
	"repro/internal/xrand"
)

// kv-serve and kv-write: closed-loop clients on one TolerantDB with five
// clean replicas. Nothing is defective, so the mitigation ladder and the
// report path must stay idle; a signal or a retry here is a failure.

const (
	kvRows       = 4096
	kvValueBytes = 64
	// kvSlice is the stretch of the window one host speed, one rate and one
	// latency are taken over; the run reports the median slice.
	kvSlice = 250 * time.Millisecond
	// kvBlock is how long the client runs operations between two
	// calibration units; a slice's rate is that of its median block.
	kvBlock = time.Millisecond
	// kvSpanSample is how often a traced run records a span: 1 op in 64.
	kvSpanSample = 64
)

// kvCleanMachines places the five clean replicas of kv-serve and kv-write.
var kvCleanMachines = []string{"kv0", "kv1", "kv2", "kv3", "kv4"}

// kvMix is the traffic mix in percent; the remainder is Put.
type kvMix struct{ get, query int }

func runKVServe(e env) (*result, error) { return runKV(e, kvMix{get: 98}) }
func runKVWrite(e env) (*result, error) { return runKV(e, kvMix{get: 40, query: 10}) }

func kvKey(i int) string { return "row" + strconv.Itoa(i) }

// kvKeys returns the row keys once, so that clients do not build a key
// string per operation.
func kvKeys(rows int) []string {
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = kvKey(i)
	}
	return keys
}

// kvValue is a 64-byte record that names its key and writer, so a reader
// can tell a committed value for the right row from anything else. The
// 0xFF padding is what a stuck-at-0 bit corrupts (cee-to-cordon).
func kvValue(key string, writer, version int) []byte {
	v := make([]byte, 0, kvValueBytes)
	v = append(v, key...)
	v = append(v, '=')
	v = strconv.AppendInt(v, int64(writer), 10)
	v = append(v, '.')
	v = strconv.AppendInt(v, int64(version), 10)
	for len(v) < kvValueBytes {
		v = append(v, 0xFF)
	}
	return v
}

// kvCommitted reports whether v is a value some writer committed for key:
// full length, the key and '=' in front, "writer.version" in digits, then
// intact padding to the end.
func kvCommitted(key string, v []byte) bool {
	if len(v) != kvValueBytes || len(key)+1 >= len(v) ||
		string(v[:len(key)]) != key || v[len(key)] != '=' {
		return false
	}
	rest := v[len(key)+1:]
	i, dots := 0, 0
	for ; i < len(rest) && rest[i] != 0xFF; i++ {
		switch {
		case rest[i] == '.':
			dots++
		case rest[i] < '0' || rest[i] > '9':
			return false
		}
	}
	if i < 3 || dots != 1 || i == len(rest) {
		return false
	}
	for ; i < len(rest); i++ {
		if rest[i] != 0xFF {
			return false
		}
	}
	return true
}

// kvStore is one replicated store and the cores under it.
type kvStore struct {
	tdb   *kvdb.TolerantDB
	db    *kvdb.DB
	cores []*fault.Core
}

// buildKVStore makes a store with one replica per entry of machines,
// replica i on core i of machines[i]; replica defective (-1 for none)
// carries defect. Rows are preloaded through the tolerant layer, as a
// client would write them.
func buildKVStore(machines []string, rows int, seed uint64, cfg kvdb.TolerantConfig, defective int, defect fault.Defect) (*kvStore, error) {
	st := &kvStore{cores: make([]*fault.Core, len(machines))}
	replicas := make([]*kvdb.Replica, len(machines))
	for i, machine := range machines {
		var defs []fault.Defect
		if i == defective {
			defs = append(defs, defect)
		}
		st.cores[i] = fault.NewCore(machine+"/c"+strconv.Itoa(i), xrand.New(seed+uint64(i)), defs...)
		replicas[i] = kvdb.NewReplica("r"+strconv.Itoa(i), engine.New(st.cores[i])).Locate(machine, i)
	}
	db, err := kvdb.New(replicas...)
	if err != nil {
		return nil, err
	}
	st.db = db
	st.tdb = kvdb.NewTolerant(db, cfg)
	for i := 0; i < rows; i++ {
		st.tdb.Put(kvKey(i), kvValue(kvKey(i), 0, 0))
	}
	return st, nil
}

// kvHeadline is the operation whose latency is the mix's headline: the
// most frequent one.
func (m kvMix) headlineIsPut() bool { return 100-m.get-m.query > m.get }

func runKV(e env, mix kvMix) (*result, error) {
	res := newResult()
	if e.traced {
		res.spans = newRecorder()
	}
	window, slice, setups := time.Duration(e.seconds*float64(time.Second)), kvSlice, 9
	if e.quick {
		window, slice, setups = 400*time.Millisecond, 50*time.Millisecond, 2
	}
	meter := calib.New()

	// Set-up is building the replicas and writing every row once; it is
	// repeated so that its time is a median, and the last store is used.
	var signals atomic.Int64
	cfg := kvdb.TolerantConfig{Sink: func(detect.Signal) error { signals.Add(1); return nil }}
	var store *kvStore
	var builds, refBuilds []time.Duration
	for i := 0; i < setups; i++ {
		wall, ref, err := timedSetup(meter, func() (err error) {
			store, err = buildKVStore(kvCleanMachines, kvRows, e.seed*1000, cfg, -1, fault.Defect{})
			return err
		})
		if err != nil {
			return nil, err
		}
		builds, refBuilds = append(builds, wall), append(refBuilds, ref)
	}

	// One client, one goroutine: a block of operations, a calibration unit,
	// the next block. Two clients on the box's two vCPUs measured the
	// hypervisor's scheduler (a lock holder descheduled mid-Put) more than
	// the store.
	var (
		read, write, query hist.H
		keys               = kvKeys(kvRows)
		rng                = xrand.New(e.seed << 8)
		version            = 0
		start              = time.Now()
		deadline           = start.Add(window)
		ops                = sliceLog{start: start, width: slice}
		headline           = &read
		blockLat           []uint64
		blockOps           int64
		blockStart         = start
	)
	if mix.headlineIsPut() {
		headline = &write
	}
	for n := 0; ; n++ {
		key := keys[rng.Intn(kvRows)]
		roll := rng.Intn(100)
		// In a traced run, half the slices record spans and half do not:
		// the two halves see the same seconds of host time.
		sampled := res.spans != nil && n%kvSpanSample == 0
		t := time.Now()
		if sampled && !tracedSlice(int(t.Sub(start)/slice)) {
			sampled = false
		}
		// Each arm makes its call and names the histogram and span the
		// latency goes to; the reply is checked once the clock has stopped.
		var (
			h    *hist.H
			span string
			v    []byte
			got  []string
			err  error
		)
		switch {
		case roll < mix.get:
			v, err = store.tdb.Get(key)
			h, span = &read, "kvdb.get"
		case roll < mix.get+mix.query:
			got = store.tdb.QueryByValue(kvValue(key, 0, 0))
			h, span = &query, "kvdb.query"
		default:
			version++
			store.tdb.Put(key, kvValue(key, 1, version))
			h, span = &write, "kvdb.put"
		}
		end := time.Now()
		took := uint64(end.Sub(t))
		h.Record(took)
		if h == headline {
			blockLat = append(blockLat, took)
		}
		switch h {
		case &read:
			if err != nil || !kvCommitted(key, v) {
				res.failed++
			}
		case &query:
			// Which rows still hold their preloaded value: this row or,
			// once overwritten, none.
			if len(got) > 1 || (len(got) == 1 && got[0] != key) {
				res.failed++
			}
		}
		if sampled {
			res.spans.add(span, 0, 0, t, end)
		}
		res.attempted++
		blockOps++
		if wall := end.Sub(blockStart); wall >= kvBlock {
			ops.add(end, blockOps, wall)
			if len(blockLat) > 0 {
				slices.Sort(blockLat)
				ops.observe(end, float64(blockLat[len(blockLat)/2]))
			}
			blockOps, blockLat = 0, blockLat[:0]
			if !end.Before(deadline) {
				break
			}
			meter.Sample()
			blockStart = time.Now()
		}
	}
	store.tdb.Close()

	st := store.tdb.Stats()
	if idle := st.Retries + st.Repairs + st.DegradedServes + st.Errors + st.IndexDivergence + int(signals.Load()); idle != 0 {
		return nil, fmt.Errorf("clean replicas, yet the mitigation ladder ran: %+v, %d signals", st, signals.Load())
	}
	full := int(window / slice)
	figs := ops.figures(full, meter)
	speed := medianOf(figs, nil, hostSpeed)

	if !e.traced {
		res.set("setup_s", medianDuration(refBuilds).Seconds())
		res.set("work_per_s", medianOf(figs, nil, refRate))
		res.set("latency_p50_us", medianOf(figs, nil, refLat)/1e3)
		res.show("host speed", speed, "ratio", fmt.Sprintf("median of %d slices of %v; 1.0 is the quiet reference box", full, slice))
		res.show("kv_ops_per_s (wall clock)", medianOf(figs, nil, wallRate), "1/s", "1 client, closed loop")
		res.showTiming("kv_read_p50_ns (wall clock)", &read, "ns")
		res.showTiming("kv_write_p50_us (wall clock)", &write, "us")
		if query.Count() > 0 {
			res.showTiming("kvdb.query (wall clock)", &query, "us")
		}
		res.show("set-up (wall clock)", medianDuration(builds).Seconds(), "s", fmt.Sprintf("median of %d store builds", len(builds)))
		return res, nil
	}

	res.set("host.speed", speed)
	res.set("kvdb.ops_per_s", medianOf(figs, nil, wallRate))
	res.set("obs.trace_overhead_ratio", tracedOverUntraced(figs))
	res.set("kvdb.read_p50_ns", read.Quantile(0.5))
	res.set("kvdb.read_p99_ns", read.Quantile(0.99))
	res.set("kvdb.write_p50_us", write.Quantile(0.5)/1e3)
	res.set("kvdb.write_p99_us", write.Quantile(0.99)/1e3)
	res.set("kvdb.query_p50_us", query.Quantile(0.5)/1e3)
	// kvdb.retries, repairs, degraded and signals_* read 0 here: the gate
	// above failed the run otherwise.
	res.showTiming("kvdb.get", &read, "ns")
	res.showTiming("kvdb.put", &write, "us")
	res.showTiming("kvdb.get spans (1 in 64)", res.spans.durations("kvdb.get"), "ns")

	raw, tolerant, copy64, err := kvProbes(e)
	if err != nil {
		return nil, err
	}
	res.set("kvdb.raw_get_ns", raw)
	res.set("kvdb.tolerant_overhead_ns", tolerant-raw)
	res.set("engine.copy64_ns", copy64)
	return res, nil
}

// kvProbes times, on one goroutine and a store of its own, the layers
// under a tolerant read: the engine's 64-byte copy, DB.Get (replica pick,
// copy, checksum) and TolerantDB.Get on top of it. Each figure is the
// median over batches of 1000 calls.
func kvProbes(e env) (rawGetNs, tolerantGetNs, copy64Ns float64, err error) {
	batches := 200
	if e.quick {
		batches = 20
	}
	st, err := buildKVStore(kvCleanMachines, kvRows, e.seed*1000+500, kvdb.TolerantConfig{}, -1, fault.Defect{})
	if err != nil {
		return 0, 0, 0, err
	}
	rng := xrand.New(e.seed + 99)
	keys := kvKeys(kvRows)
	perCall := func(call func(key string) bool) (float64, error) {
		var h hist.H
		for b := 0; b < batches; b++ {
			t := time.Now()
			for i := 0; i < 1000; i++ {
				if !call(keys[rng.Intn(kvRows)]) {
					return 0, fmt.Errorf("probe read failed")
				}
			}
			h.Record(uint64(time.Since(t)))
		}
		return h.Quantile(0.5) / 1000, nil
	}
	if rawGetNs, err = perCall(func(key string) bool {
		v, err := st.db.Get(key)
		return err == nil && kvCommitted(key, v)
	}); err != nil {
		return
	}
	if tolerantGetNs, err = perCall(func(key string) bool {
		v, err := st.tdb.Get(key)
		return err == nil && kvCommitted(key, v)
	}); err != nil {
		return
	}
	eng := engine.New(fault.NewCore("probe/copy", xrand.New(e.seed+7)))
	src, dst := kvValue("row0", 0, 0), make([]byte, kvValueBytes)
	copy64Ns, err = perCall(func(string) bool {
		return eng.Copy(dst, src) == kvValueBytes
	})
	return
}
