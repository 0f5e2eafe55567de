package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/bench/calib"
	"repro/bench/hist"
	"repro/bench/openloop"
	"repro/bench/syncfs"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/kvdb"
	"repro/internal/lifecycle"
	"repro/internal/remediate"
)

// cee-to-cordon: the paper's operational number. The real pipeline runs
// with only the hardware faked: every store has one replica on a core with
// a stuck bit. An open-loop client stream moves to a fresh store every
// 50 ms, so evidence arrives at a fixed rate whatever the system does
// with it. A corrupt read is caught by the record checksum, reported
// through the store's signal queue and kvdb.ClientBatchSink over loopback
// HTTP into the server's ingest queue and tracker; a controller woken by
// OnSignal sweeps Suspects(), asks the remediation policy, and cordons the
// machine on an fsynced WAL. The stores' Health reads that ledger, so
// reads leave the replica once its machine is cordoned.

const (
	ceeRows = 64
	// ceeRate is the offered load in operations per second.
	ceeRate = 4000
	// ceeJoinEvery is how often the stream moves to the next store. The
	// issue says 100 ms; an episode takes 10-35 ms and the median of 100 of
	// them moves by a tenth between identical runs, so the driver's 10 s
	// window holds 200 episodes at 50 ms instead.
	ceeJoinEvery = 50 * time.Millisecond
	// ceeBackground machines of evenly spread noise are in the tracker, so
	// that a sweep costs what it would in a fleet.
	ceeBackground = 5000
	// ceeDeadline is how long an episode may take before it counts as
	// failed.
	ceeDeadline = 2 * time.Second
	// ceeMaxLate is the generator lateness, at the median of the last
	// tenth of the operations, beyond which the run has a growing backlog.
	// A stream that cannot be sustained ends seconds late; a shared host
	// that stalls for 50 ms near the end does not.
	ceeMaxLate = 250 * time.Millisecond
	ceePutPct  = 10
	// ceeSlice is the stretch of the stream whose mitigated reads and
	// writes are compared with its clean reads; the run reports the median
	// slice. It holds ten episodes.
	ceeSlice = 500 * time.Millisecond
	// ceeRefCleanNs is the stream's median clean read, from the call, on
	// the reference box when its neighbours are quiet: twice a kv-serve
	// read, because each operation starts on a goroutine just woken from a
	// timer. It only sets the scale of the bounded figures.
	ceeRefCleanNs = 2400
	// ceeEdgeUnits calibration units are run on the idle process before and
	// after the stream, for the host speed the traced run reports.
	ceeEdgeUnits = 200
)

// servedOp is one operation of the stream as its caller saw it: when it
// returned, how long the call took, and whether it was a write, a read that
// needed the mitigation ladder, or (neither) a clean read.
type servedOp struct {
	end       time.Time
	took      time.Duration
	mitigated bool
	put       bool
}

// ceeDefect is the fail-silent core of §3: bit 3 of every copied word is
// stuck at 0, so each record the core stores or serves (0xFF padding)
// comes out wrong.
var ceeDefect = fault.Defect{
	ID: "bench-stuck", Unit: fault.UnitVec, Deterministic: true,
	Kind: fault.CorruptStuckBit, BitPos: 3, StuckVal: 0,
}

// stamp is a time recorded at most once, by whoever gets there first.
type stamp struct{ ns atomic.Int64 }

func (s *stamp) set(epoch time.Time) {
	if s.ns.Load() == 0 {
		s.ns.CompareAndSwap(0, max(int64(time.Since(epoch)), 1))
	}
}

func (s *stamp) get() time.Duration { return time.Duration(s.ns.Load()) }

// episode is one store's corruption-to-cordon story, seam by seam.
type episode struct {
	index   int
	machine string
	store   *kvStore
	// traced episodes also stamp the seams between the ends.
	traced bool
	// corrupt is the first ground-truth corruption (fault.Core.OnCorrupt);
	// cordoned is the ledger's observer seeing the cordon after its fsync.
	corrupt, cordoned stamp
	// The seams in between: the store's batch sink called and returned,
	// the server's OnSignal, and the machine's first appearance in a
	// Suspects() sweep.
	sinkCalled, sinkAcked, onSignal, nominated stamp
	// cordonIssued belongs to the controller goroutine.
	cordonIssued bool
}

func (ep *episode) total() time.Duration { return ep.cordoned.get() - ep.corrupt.get() }

// ceeRig is the assembled pipeline.
type ceeRig struct {
	epoch    time.Time
	plane    *ctlPlane
	episodes []*episode
	byID     map[string]*episode
	acked    []lifecycle.Transition

	wake     chan struct{}
	stopCtl  chan struct{}
	ctlDone  chan struct{}
	sweepNs  hist.H
	sweeps   int
	strayers int // nominations of machines that are not episode machines
	ctlErr   error
	spans    *recorder
}

// buildCeeRig is the set-up: ledger on a fresh fsynced WAL, server with
// its queue and background noise, loopback listener, the stores with their
// rows preloaded, and the controller.
func buildCeeRig(path string, episodes, background int, seed uint64, traceOdd bool, spans *recorder) (*ceeRig, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	rig := &ceeRig{epoch: time.Now(), byID: map[string]*episode{}, spans: spans,
		wake: make(chan struct{}, 1), stopCtl: make(chan struct{}), ctlDone: make(chan struct{})}
	// The episodes exist before the server does: its goroutines look them
	// up by machine from the first signal on.
	for k := 0; k < episodes; k++ {
		ep := &episode{index: k, machine: fmt.Sprintf("e%04d", k), traced: traceOdd && k%2 == 1}
		rig.episodes = append(rig.episodes, ep)
		rig.byID[ep.machine] = ep
	}
	plane, err := startCtlPlane(path, background, func(sig detect.Signal) {
		if ep := rig.byID[sig.Machine]; ep != nil && ep.traced {
			ep.onSignal.set(rig.epoch)
		}
		select {
		case rig.wake <- struct{}{}:
		default: // a sweep is already owed
		}
	})
	if err != nil {
		return nil, err
	}
	rig.plane = plane
	client := newReportClient(plane.ts.URL, seed)
	health := func(machine string, _ int) bool {
		rec, ok := plane.mgr.State(machine)
		return ok && rec.State == lifecycle.Cordoned
	}
	for k, ep := range rig.episodes {
		bad := k % 3
		machines := []string{fmt.Sprintf("g%04da", k), fmt.Sprintf("g%04db", k), fmt.Sprintf("g%04dc", k)}
		machines[bad] = ep.machine
		deliver := kvdb.ClientBatchSink(client)
		cfg := kvdb.TolerantConfig{SignalQueue: 256, Health: health, BatchSink: deliver}
		if ep.traced {
			cfg.BatchSink = func(sigs []detect.Signal) error {
				ep.sinkCalled.set(rig.epoch)
				err := deliver(sigs)
				ep.sinkAcked.set(rig.epoch)
				return err
			}
		}
		if ep.store, err = buildKVStore(machines, ceeRows, seed*1000+uint64(k)*8, cfg, bad, ceeDefect); err != nil {
			return nil, err
		}
		// Armed after the preload: the stored copies on the bad replica are
		// already corrupt, the episode starts with the first corrupt read.
		ep.store.cores[bad].OnCorrupt = func(fault.CorruptionEvent) { ep.corrupt.set(rig.epoch) }
	}
	rig.plane.mgr.SetObserver(func(tr lifecycle.Transition) {
		rig.acked = append(rig.acked, tr)
		if ep := rig.byID[tr.Machine]; ep != nil && tr.Kind == "" && tr.To == lifecycle.Cordoned.String() {
			ep.cordoned.set(rig.epoch)
		}
	})
	go rig.control()
	return rig, nil
}

// control is the stand-in for fleet/lifecycle.go's suspect phase: each
// coalesced wake runs one Suspects() sweep, asks the default remediation
// policy about every nominated machine not yet acted on, and cordons.
func (rig *ceeRig) control() {
	defer close(rig.ctlDone)
	var policy remediate.Policy = remediate.DefaultPolicy{}
	for {
		select {
		case <-rig.stopCtl:
			return
		case <-rig.wake:
		}
		t := time.Now()
		suspects := rig.plane.srv.Suspects()
		end := time.Now()
		rig.sweeps++
		rig.sweepNs.Record(uint64(end.Sub(t)))
		rig.spans.add("detect.suspects", 0, 0, t, end)
		for i := range suspects {
			s := &suspects[i]
			ep := rig.byID[s.Machine]
			if ep == nil {
				rig.strayers++
				continue
			}
			if ep.cordonIssued {
				continue
			}
			if ep.traced {
				ep.nominated.set(rig.epoch)
			}
			view := remediate.MachineView{Machine: s.Machine, Score: s.Score()}
			if rec, ok := rig.plane.mgr.State(s.Machine); ok {
				view.State, view.RepairCycles = rec.State.String(), rec.RepairCycles
			}
			if act := policy.Decide(view); act.Kind == remediate.ActDrain {
				t := time.Now()
				_, err := rig.plane.mgr.CordonScored(s.Machine, 0, act.Reason, "bench-controller", s.Score())
				if err != nil {
					rig.ctlErr = err
					return
				}
				if ep.traced {
					rig.spans.add("lifecycle.cordon", 0, uint64(ep.index)+1, t, time.Now())
				}
				ep.cordonIssued = true
				rig.plane.srv.Forget(s.Machine)
			}
		}
	}
}

// stop flushes the stores' signal queues, quiesces the server and the
// controller, and closes the ledger; synced is the WAL's synced size
// before that close.
func (rig *ceeRig) stop(path string) (synced int64, err error) {
	for _, ep := range rig.episodes {
		ep.store.tdb.Close()
	}
	rig.plane.ts.Close()
	rig.plane.srv.Close()
	close(rig.stopCtl)
	<-rig.ctlDone
	synced = rig.plane.fs.SyncedSize(path)
	if err := rig.plane.mgr.Close(); err != nil {
		return synced, err
	}
	return synced, rig.ctlErr
}

// ceeOp derives operation i of the stream from the seed: which row, and
// whether it is a Put.
func ceeOp(seed uint64, i int) (row int, put bool) {
	x := seed ^ uint64(i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % ceeRows), (x>>32)%100 < ceePutPct
}

func runCeeToCordon(e env) (*result, error) {
	res := newResult()
	if e.traced {
		res.spans = newRecorder()
	}
	episodes, background, setups := int(e.seconds*float64(time.Second)/float64(ceeJoinEvery)), ceeBackground, 5
	if e.quick {
		episodes, background, setups = 6, 500, 1
	}
	if episodes < 1 {
		return nil, fmt.Errorf("-seconds %g is shorter than one episode (%v)", e.seconds, ceeJoinEvery)
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("cee-to-cordon-%d.wal", os.Getpid()))
	defer os.Remove(path)

	meter := calib.New()

	var rig *ceeRig
	var builds, refBuilds []time.Duration
	for i := 0; i < setups; i++ {
		if rig != nil {
			if _, err := rig.stop(path); err != nil {
				return nil, err
			}
		}
		wall, ref, err := timedSetup(meter, func() (err error) {
			rig, err = buildCeeRig(path, episodes, background, e.seed, e.traced, res.spans)
			return err
		})
		if err != nil {
			return nil, err
		}
		builds, refBuilds = append(builds, wall), append(refBuilds, ref)
	}

	perEpisode := int(ceeRate * ceeJoinEvery.Seconds())
	keys := kvKeys(ceeRows)
	type slot struct {
		clean, mitigated  hist.H
		attempted, failed int64
		retries           int64
		// served holds every operation, timed from the call.
		served []servedOp
	}
	slots := make([]slot, e.slots)
	for s := range slots {
		slots[s].served = make([]servedOp, 0, episodes*perEpisode/e.slots+1)
	}
	issue := func(s, i int, due time.Time) {
		sl := &slots[s]
		ep := rig.episodes[i/perEpisode]
		row, put := ceeOp(e.seed, i)
		sl.attempted++
		called := time.Now()
		if put {
			ep.store.tdb.Put(keys[row], kvValue(keys[row], s+1, i))
			end := time.Now()
			sl.served = append(sl.served, servedOp{end: end, took: end.Sub(called), put: true})
			return
		}
		v, info, err := ep.store.tdb.GetTraced(keys[row])
		end := time.Now()
		sl.served = append(sl.served, servedOp{end: end, took: end.Sub(called), mitigated: err == nil && info.Result != "ok"})
		took := end.Sub(due)
		if err != nil || !kvCommitted(keys[row], v) {
			sl.failed++
			return
		}
		if info.Result == "ok" {
			sl.clean.Record(uint64(took))
		} else {
			sl.mitigated.Record(uint64(took))
			sl.retries += int64(info.Retries)
		}
		if ep.traced && i%kvSpanSample == 0 {
			res.spans.add("kvdb.get", 0, uint64(i/perEpisode)+1, due, due.Add(took))
		}
	}
	meter.SampleN(ceeEdgeUnits)
	gen, err := openloop.Run(openloop.Config{Rate: ceeRate, Ops: episodes * perEpisode, Slots: e.slots, MaxBacklog: ceeMaxLate}, issue)
	if err != nil {
		rig.stop(path)
		return nil, err
	}
	// The stream has ended; an episode still open gets the rest of its 2 s.
	for _, ep := range rig.episodes {
		for ep.cordoned.get() == 0 && ep.corrupt.get() != 0 &&
			time.Since(rig.epoch)-ep.corrupt.get() < ceeDeadline {
			time.Sleep(time.Millisecond)
		}
	}
	meter.SampleN(ceeEdgeUnits)
	speed := meter.Speed(gen.Start.Add(-time.Second), time.Now())
	var stats kvdb.TolerantStats
	synced, err := rig.stop(path)
	if err != nil {
		return nil, err
	}
	if err := syncfs.CheckDurable(path, synced, 0, rig.acked); err != nil {
		return nil, err
	}

	var clean, mitigated hist.H
	var retries int64
	for i := range slots {
		clean.Merge(&slots[i].clean)
		mitigated.Merge(&slots[i].mitigated)
		res.attempted += slots[i].attempted
		res.failed += slots[i].failed
		retries += slots[i].retries
	}
	var totals, tracedTotals, plainTotals hist.H
	var tracedEps []*episode
	for _, ep := range rig.episodes {
		res.attempted++
		st := ep.store.tdb.Stats()
		stats.Retries += st.Retries
		stats.Repairs += st.Repairs
		stats.DegradedServes += st.DegradedServes
		stats.SignalsSent += st.SignalsSent
		stats.SignalsShed += st.SignalsShed
		stats.SignalsDropped += st.SignalsDropped
		stats.Errors += st.Errors
		rec, _ := rig.plane.mgr.State(ep.machine)
		if ep.corrupt.get() == 0 || ep.cordoned.get() == 0 || ep.total() > ceeDeadline || rec.State != lifecycle.Cordoned {
			res.failed++
			continue
		}
		totals.Record(uint64(ep.total()))
		if ep.traced {
			tracedTotals.Record(uint64(ep.total()))
			tracedEps = append(tracedEps, ep)
		} else {
			plainTotals.Record(uint64(ep.total()))
		}
	}
	// No background machine may have been touched: the ledger holds the
	// episode machines and nothing else.
	// (The manager is closed by now; its ledger is still readable.)
	if n := len(rig.plane.mgr.List()); rig.strayers > 0 || n != len(rig.episodes) {
		return nil, fmt.Errorf("the ledger holds %d machines for %d episodes, and %d nominations named other machines", n, len(rig.episodes), rig.strayers)
	}
	if stats.Errors+stats.DegradedServes+stats.SignalsDropped+stats.SignalsShed > 0 {
		return nil, fmt.Errorf("serving fell off the mitigation ladder or lost evidence: %+v", stats)
	}
	// The stream slice by slice, as its callers saw it: timed from the call
	// here, not from the due time, which adds the host's timer lateness to
	// every operation. The pipeline is many goroutines, and a calibration
	// unit run beside it measured the pipeline — whether a sweep was running
	// on the other CPU — more than the host, while one run on the idle
	// process between stretches of the stream followed the host twice as
	// closely as these operations do, each of which starts on a goroutine
	// just woken from a timer. The stream carries its own yardstick
	// instead: nine operations in ten are clean reads, and a slice's
	// mitigated read and write are taken as multiples of its clean read,
	// restated in time at the reference box's clean read. What the host
	// does to the three cancels; what is left is what the ladder and the
	// write path cost next to a clean read. (The clean read itself is
	// bounded on kv-serve.)
	slice := ceeSlice
	if e.quick {
		slice = ceeJoinEvery
	}
	type sliceOps struct{ clean, ladder, put []float64 }
	perSlice := make([]sliceOps, int(gen.Elapsed/slice)+1)
	var cleanCalls, ladderCalls, putCalls hist.H
	for i := range slots {
		for _, op := range slots[i].served {
			so := &perSlice[min(int(op.end.Sub(gen.Start)/slice), len(perSlice)-1)]
			switch {
			case op.put:
				so.put = append(so.put, float64(op.took))
				putCalls.Record(uint64(op.took))
			case op.mitigated:
				so.ladder = append(so.ladder, float64(op.took))
				ladderCalls.Record(uint64(op.took))
			default:
				so.clean = append(so.clean, float64(op.took))
				cleanCalls.Record(uint64(op.took))
			}
		}
	}
	var ladderOverClean, putOverClean []float64
	for _, so := range perSlice {
		if clean := medianFloat(so.clean); clean > 0 && len(so.ladder) > 0 && len(so.put) > 0 {
			ladderOverClean = append(ladderOverClean, medianFloat(so.ladder)/clean)
			putOverClean = append(putOverClean, medianFloat(so.put)/clean)
		}
	}
	ops := float64(res.attempted - int64(len(rig.episodes)))
	served := ops / gen.Elapsed.Seconds()

	if !e.traced {
		res.set("setup_s", medianDuration(refBuilds).Seconds())
		res.set("work_per_s", 1e9/(medianFloat(putOverClean)*ceeRefCleanNs))
		res.set("latency_p50_us", medianFloat(ladderOverClean)*ceeRefCleanNs/1e3)
		res.show("mitigated read over clean read", medianFloat(ladderOverClean), "ratio", fmt.Sprintf("median of %d slices of %v", len(ladderOverClean), slice))
		res.show("write over clean read", medianFloat(putOverClean), "ratio", fmt.Sprintf("the reference clean read is %d ns", ceeRefCleanNs))
		res.show("host speed", speed, "ratio", "on the idle process before and after the stream; 1.0 is the quiet reference box")
		res.show("served (wall clock)", served, "1/s", "on schedule")
		res.showTiming("cee_to_cordon_p50_ms (wall clock)", &totals, "ms")
		res.showTiming("clean read, from the call (wall clock)", &cleanCalls, "ns")
		res.showTiming("mitigated read, from the call (wall clock)", &ladderCalls, "us")
		res.showTiming("write, from the call (wall clock)", &putCalls, "us")
		res.show("set-up (wall clock)", medianDuration(builds).Seconds(), "s", fmt.Sprintf("median of %d rigs", len(builds)))
		res.showTiming("cee_mitigated_read_p50_us (from due time)", &mitigated, "us")
		res.showTiming("clean read (from due time)", &clean, "us")
		res.showTiming("gen.late", &gen.LateNs, "us")
		res.show("offered", ceeRate, "1/s", fmt.Sprintf("open loop, %d slots, a fresh store every %v, %d episodes", e.slots, ceeJoinEvery, episodes))
		res.show("wal records acked and durable", float64(len(rig.acked)), "count", "replay == acked after truncating to the synced size")
		return res, nil
	}

	res.set("host.speed", speed)
	res.set("cee.p50_ms", tracedTotals.Quantile(0.5)/1e6)
	res.set("cee.p95_ms", tracedTotals.Quantile(0.95)/1e6)
	if plainTotals.Count() > 0 && tracedTotals.Count() > 0 {
		res.set("obs.trace_overhead_ratio", tracedTotals.Quantile(0.5)/plainTotals.Quantile(0.5))
	}
	if err := ceeHops(res, rig.epoch, tracedEps); err != nil {
		return nil, err
	}
	res.set("kvdb.mitigated_read_p50_us", mitigated.Quantile(0.5)/1e3)
	res.set("kvdb.retries", float64(stats.Retries))
	res.set("kvdb.repairs", float64(stats.Repairs))
	res.set("kvdb.degraded", float64(stats.DegradedServes))
	res.set("kvdb.signals_sent", float64(stats.SignalsSent))
	res.set("kvdb.signals_shed", float64(stats.SignalsShed))
	if n := mitigated.Count(); n > 0 {
		res.set("kvdb.retries_per_mitigated_read", float64(retries)/float64(n))
	}
	res.set("detect.suspects_sweep_ms", rig.sweepNs.Quantile(0.5)/1e6)
	res.set("detect.sweeps_per_episode", float64(rig.sweeps)/float64(len(rig.episodes)))
	res.set("gen.late_p99_us", gen.LateNs.Quantile(0.99)/1e3)
	walLayers(res, rig.plane.fs, len(rig.acked))
	res.set("remediate.decide_ns", decideProbe())
	res.showTiming("cee (traced episodes)", &tracedTotals, "ms")
	res.showTiming("cee (untraced episodes)", &plainTotals, "ms")
	res.showTiming("detect.suspects sweep", &rig.sweepNs, "ms")
	res.showTiming("mitigated read (from due time)", &mitigated, "us")
	res.showTiming("gen.late", &gen.LateNs, "us")
	return res, nil
}

// ceeHops reports the hops of the median traced episode, averaged with its
// two neighbours in rank so that one odd episode does not set five
// numbers. Each episode's hops add up to its total by construction, so
// these add up to the median total; the check guards that.
func ceeHops(res *result, epoch time.Time, eps []*episode) error {
	if len(eps) == 0 {
		return fmt.Errorf("no traced episode completed")
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].total() < eps[j].total() })
	mid := (len(eps) - 1) / 2
	band := eps[max(mid-1, 0):min(mid+2, len(eps))]
	var detectH, deliver, ingest, nominate, cordon, total time.Duration
	for _, ep := range band {
		for _, s := range []*stamp{&ep.sinkCalled, &ep.sinkAcked, &ep.onSignal, &ep.nominated} {
			if s.get() == 0 {
				return fmt.Errorf("episode %s was cordoned without passing every seam", ep.machine)
			}
		}
		detectH += ep.sinkCalled.get() - ep.corrupt.get()
		deliver += ep.sinkAcked.get() - ep.sinkCalled.get()
		// Negative when the server's drainer hands the batch to the tracker
		// before the HTTP reply reaches the store.
		ingest += ep.onSignal.get() - ep.sinkAcked.get()
		nominate += ep.nominated.get() - ep.onSignal.get()
		cordon += ep.cordoned.get() - ep.nominated.get()
		total += ep.total()
		res.spans.add("cee.episode", 0, uint64(ep.index)+1, epoch.Add(ep.corrupt.get()), epoch.Add(ep.cordoned.get()))
	}
	n := float64(len(band))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	res.set("hop.detect_us", us(detectH))
	res.set("hop.deliver_us", us(deliver))
	res.set("hop.ingest_us", us(ingest))
	res.set("hop.nominate_ms", us(nominate)/1e3)
	res.set("hop.cordon_us", us(cordon))
	p50 := res.values["cee.p50_ms"]
	sum := us(total) / 1e3
	res.show("hop sum", sum, "ms", fmt.Sprintf("median episode and its rank neighbours (%d); cee.p50_ms is %.4g", len(band), p50))
	if off := (sum - p50) / p50; len(eps) >= 20 && (off < -0.05 || off > 0.05) {
		return fmt.Errorf("hops sum to %.3f ms but the traced median is %.3f ms", sum, p50)
	}
	return nil
}
