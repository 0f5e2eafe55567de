package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bench/calib"
	"repro/bench/hist"
	"repro/bench/syncfs"
	"repro/internal/detect"
	"repro/internal/lifecycle"
	"repro/internal/remediate"
	"repro/internal/report"
	"repro/internal/xrand"
)

// ctl-storm: the control plane alone. An in-process report.Server with its
// ingest queue on and a lifecycle ledger on an fsynced WAL sits behind a
// loopback HTTP listener. The ledger starts from a replayed history of
// 200 000 records. Connection A posts 64-report batches in a closed loop
// and is what the run measures. Connection B is the operator: on a fixed
// schedule, whatever the server does with it, it walks one machine every
// 40 ms through cordon, drain, repair and release and lists the suspects
// every sixth machine. Were B a closed loop too, the device's fsync time
// would set how many verbs and sweeps compete with A for the two vCPUs,
// and A's rate would follow the disk.

const (
	ctlCores = 32
	ctlBatch = 64
	// ctlHistoryCycles full repair cycles per machine, five records each,
	// make the replayed history: 20 000 x 2 x 5 = 200 000 records.
	ctlHistoryCycles = 2
	// ctlMaxRepairs keeps the rotating admin stream out of the recidivist
	// rule (a third cordon would remove the machine for good).
	ctlMaxRepairs = 1 << 30
	// ctlSlice is longer than kvSlice on purpose. Connection B's sweep of
	// the suspects takes ~50 ms of one CPU every 240 ms, so 100 ms slices
	// come in two kinds, with and without a sweep, and their median jumps
	// between the two. About half a second holds two sweeps either way.
	ctlSlice = 480 * time.Millisecond
	// ctlSuspectsEvery is how often connection B reads GET /v1/suspects: on
	// every sixth machine, so every 240 ms.
	ctlSuspectsEvery = 6
	// ctlCycleEvery is connection B's schedule: one machine through its
	// four verbs. A verb is an fsync, 0.3 ms on a quiet device and 3 ms on
	// a busy one, and a sweep takes about 50 ms, so B falls a cycle or two
	// behind at every sweep and has caught up before the next. (At the
	// issue's every-50th-of-a-closed-loop the device set the pace: one
	// machine per 5 ms was 3.8 s behind at the median on a busy device.)
	ctlCycleEvery = 40 * time.Millisecond
	// ctlGroup batches run between two calibration units on connection A:
	// a block of about a millisecond and a half. A slice's rate is that of
	// its median block.
	ctlGroup = 4
	// ctlNoisePerMachine signals per machine, each on a different core, are
	// in the tracker before the window opens: evenly spread software-bug
	// noise that nominates nobody but that every sweep has to walk.
	ctlNoisePerMachine = 4
)

var ctlVerbs = [...]string{"cordon", "drain", "repair", "release"}

func machineID(i int) string { return fmt.Sprintf("m%05d", i) }

// writeCtlHistory generates the input WAL: every machine goes through
// cycles of cordon, drain, drained, repair, probation. It is written
// without fsync — this is input generation, not the system under test.
func writeCtlHistory(path string, machines, cycles int) (records int, err error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	wal, _, _, err := lifecycle.OpenWAL(path)
	if err != nil {
		return 0, err
	}
	wal.NoSync = true
	m := lifecycle.NewManager(lifecycle.Options{WAL: wal, MaxRepairs: ctlMaxRepairs})
	cycle := []func(id string, day int) (lifecycle.State, error){
		func(id string, day int) (lifecycle.State, error) { return m.Cordon(id, day, "history", "bench") },
		func(id string, day int) (lifecycle.State, error) { return m.Drain(id, day, "history", "bench") },
		func(id string, day int) (lifecycle.State, error) { return m.MarkDrained(id, day, "bench") },
		func(id string, day int) (lifecycle.State, error) { return m.StartRepair(id, day, "bench") },
		func(id string, day int) (lifecycle.State, error) { return m.Reintroduce(id, day, "history", "bench") },
	}
	for c := 0; c < cycles; c++ {
		for i := 0; i < machines; i++ {
			for _, step := range cycle {
				if _, err := step(machineID(i), c); err != nil {
					m.Close()
					return 0, err
				}
				records++
			}
		}
	}
	if err := m.Close(); err != nil {
		return 0, err
	}
	// The history is on disk before the system under test opens it, so the
	// window's fsyncs flush their own records and not 24 MB of input.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	return records, f.Close()
}

// spreadNoise is evenly spread background noise: per signals for each of
// the machines, every one on a different core.
func spreadNoise(machines, per, cores int) []detect.Signal {
	out := make([]detect.Signal, 0, machines*per)
	for m := 0; m < machines; m++ {
		for k := 0; k < per; k++ {
			out = append(out, detect.Signal{Machine: machineID(m), Core: (m + k*cores/per) % cores,
				Kind: detect.SigCrash, Detail: "software bug"})
		}
	}
	return out
}

// ctlPlane is one started control plane.
type ctlPlane struct {
	fs  *syncfs.FS
	mgr *lifecycle.Manager
	srv *report.Server
	ts  *httptest.Server
	// acked is every record the ledger acknowledged since it opened, in
	// order. The observer runs under the manager lock, so appends are
	// serialized; read it only once traffic has stopped.
	acked []lifecycle.Transition
	// openTook is the lifecycle.Open share of the start-up.
	openTook time.Duration
	records  int
}

// startCtlPlane is the set-up being timed: replay the WAL, preload noise
// for the given number of machines, start the server. It is what
// ceereportd does between exec and its first request. onSignal, if not
// nil, becomes the server's OnSignal before anything can call it.
func startCtlPlane(path string, machines int, onSignal func(detect.Signal)) (*ctlPlane, error) {
	p := &ctlPlane{fs: syncfs.New(nil)}
	t := time.Now()
	mgr, info, err := lifecycle.Open(path, lifecycle.Options{FS: p.fs, MaxRepairs: ctlMaxRepairs})
	if err != nil {
		return nil, err
	}
	p.openTook = time.Since(t)
	p.mgr, p.records = mgr, info.Records
	// Attached after Open, as the daemon does, so replay is not observed.
	mgr.SetObserver(func(tr lifecycle.Transition) { p.acked = append(p.acked, tr) })
	p.srv = report.NewServer(ctlCores)
	p.srv.SetLifecycle(mgr)
	p.srv.IngestBatch(spreadNoise(machines, ctlNoisePerMachine, ctlCores))
	p.srv.OnSignal = onSignal
	p.srv.EnableQueue(0)
	p.ts = httptest.NewServer(p.srv.Handler())
	return p, nil
}

// stop quiesces HTTP, flushes the ingest queue and closes the ledger, and
// returns how much of the WAL was synced before that final close.
func (p *ctlPlane) stop(path string) (synced int64, err error) {
	p.ts.Close()
	p.srv.Close()
	synced = p.fs.SyncedSize(path)
	return synced, p.mgr.Close()
}

// newReportClient returns a client with a connection of its own.
func newReportClient(baseURL string, seed uint64) *report.Client {
	return &report.Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		JitterSeed: seed | 1,
	}
}

// ctlBatchGen draws 64-report batches. Half the reports come from the 1 %
// of machines that are hot, each always naming the same core; the other
// half come from any machine and name no core (core -1), as a fifth of
// production signals do. The tracker has no expiry, so core-attributed
// reports from the whole fleet would grow every machine's histogram — and
// the cost of each Suspects() sweep — for as long as the window lasts;
// with this mix the sweep costs the same at the end of the window as at
// its start, and what it sweeps is the noise preloaded at set-up.
type ctlBatchGen struct {
	rng      *xrand.RNG
	machines int
	source   string
	seq      uint64
}

func (g *ctlBatchGen) next() report.Batch {
	g.seq++
	b := report.Batch{Source: g.source, Seq: g.seq, Reports: make([]report.Report, ctlBatch)}
	hot := max(g.machines/100, 1)
	for i := range b.Reports {
		r := report.Report{Kind: detect.SigAppError.String(), TimeSec: float64(g.seq)}
		if g.rng.Intn(2) == 0 {
			m := g.rng.Intn(hot)
			r.Machine, r.Core = machineID(m), m%ctlCores
		} else {
			r.Machine, r.Core = machineID(g.rng.Intn(g.machines)), -1
		}
		b.Reports[i] = r
	}
	return b
}

func runCtlStorm(e env) (*result, error) {
	res := newResult()
	if e.traced {
		res.spans = newRecorder()
	}
	machines, cycles, setups := 20_000, ctlHistoryCycles, 3
	window, slice := time.Duration(e.seconds*float64(time.Second)), ctlSlice
	if e.quick {
		machines, cycles, setups, window, slice = 2_000, 1, 2, 500*time.Millisecond, 50*time.Millisecond
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("ctl-storm-%d.wal", os.Getpid()))
	defer os.Remove(path)
	history, err := writeCtlHistory(path, machines, cycles)
	if err != nil {
		return nil, err
	}

	meter := calib.New()

	var plane *ctlPlane
	var starts, refStarts, opens []time.Duration
	for i := 0; i < setups; i++ {
		if plane != nil {
			if _, err := plane.stop(path); err != nil {
				return nil, err
			}
		}
		wall, ref, err := timedSetup(meter, func() (err error) {
			plane, err = startCtlPlane(path, machines, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		starts, refStarts = append(starts, wall), append(refStarts, ref)
		opens = append(opens, plane.openTook)
		if plane.records != history {
			return nil, fmt.Errorf("replay recovered %d records, the history has %d", plane.records, history)
		}
	}

	var (
		wg                       sync.WaitGroup
		batchRTT, verbRTT, susMs hist.H
		lateB                    hist.H
		sigs                     = sliceLog{width: slice}
		batches, verbs, lists    int64
		failedA, failedB         int64
		depthMax                 int
	)
	start := time.Now()
	deadline := start.Add(window)
	sigs.start = start
	spanAt := func(t time.Time) bool { return res.spans != nil && tracedSlice(int(t.Sub(start)/slice)) }

	wg.Add(1)
	go func() { // connection A: batch ingest
		defer wg.Done()
		client := newReportClient(plane.ts.URL, e.seed)
		gen := &ctlBatchGen{rng: xrand.New(e.seed<<8 + 1), machines: machines, source: "bench-a"}
		var acked int64
		groupStart := time.Now()
		for {
			b := gen.next()
			t := time.Now()
			ack, err := client.ReportBatch(b)
			end := time.Now()
			batches++
			if err != nil || ack.Accepted != ctlBatch {
				failedA++
			} else {
				acked += ctlBatch
				sigs.observe(end, float64(end.Sub(t)))
				batchRTT.Record(uint64(end.Sub(t)))
			}
			if spanAt(t) {
				res.spans.add("report.batch", 0, gen.seq, t, end)
			}
			if gen.seq%ctlGroup == 0 {
				sigs.add(end, acked, end.Sub(groupStart))
				acked = 0
				if !end.Before(deadline) {
					return
				}
				meter.Sample()
				groupStart = time.Now()
			}
		}
	}()
	wg.Add(1)
	go func() { // connection B: admin verbs on rotating machines, on schedule
		defer wg.Done()
		client := newReportClient(plane.ts.URL, e.seed+1)
		ctx := context.Background()
		next := int(e.seed % uint64(machines))
		for op := 1; ; op++ {
			due := start.Add(time.Duration(op-1) * ctlCycleEvery)
			if !due.Before(deadline) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			lateB.Record(uint64(max(time.Since(due), 0)))
			id := machineID(next % machines)
			next++
			for _, verb := range ctlVerbs {
				t := time.Now()
				rec, err := client.MachineAction(ctx, id, verb, report.ActionRequest{Reason: "bench", Actor: "bench-b"})
				end := time.Now()
				verbs++
				if err != nil || rec.Machine != id || rec.Deferred {
					failedB++
				} else {
					verbRTT.Record(uint64(end.Sub(t)))
				}
				if spanAt(t) {
					res.spans.add("admin."+verb, 0, uint64(op), t, end)
				}
			}
			if op%ctlSuspectsEvery == 0 {
				t := time.Now()
				_, err := client.Suspects()
				end := time.Now()
				lists++
				if err != nil {
					failedB++
				} else {
					susMs.Record(uint64(end.Sub(t)))
				}
				if spanAt(t) {
					res.spans.add("ctl.suspects_get", 0, uint64(op), t, end)
				}
			}
		}
	}()
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() { // ingest-queue depth, as an operator polling it would see it
		defer close(samplerDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for e.traced {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				depthMax = max(depthMax, plane.srv.QueueDepth())
			}
		}
	}()
	wg.Wait()
	close(stopSampler)
	<-samplerDone

	res.attempted = batches + verbs + lists
	res.failed = failedA + failedB
	full := int(window / slice)
	figs := sigs.figures(full, meter)
	speed := medianOf(figs, nil, hostSpeed)

	if e.traced {
		if err := ctlLayers(e, res, plane, machines, batches); err != nil {
			return nil, err
		}
		res.set("obs.trace_overhead_ratio", tracedOverUntraced(figs))
		res.set("host.speed", speed)
		res.set("report.client_rtt_p50_us", batchRTT.Quantile(0.5)/1e3)
		res.set("report.batch_p99_us", batchRTT.Quantile(0.99)/1e3)
		res.set("report.queue_depth_max", float64(depthMax))
		res.set("ctl.suspects_get_ms", susMs.Quantile(0.5)/1e6)
		res.set("ctl.ingest_sig_per_s", medianOf(figs, nil, wallRate))
		res.set("ctl.admin_verb_p50_us", verbRTT.Quantile(0.5)/1e3)
		res.set("lifecycle.admin_p99_us", verbRTT.Quantile(0.99)/1e3)
		res.set("lifecycle.replay_us_per_record", medianDuration(opens).Seconds()*1e6/float64(history))
		res.showTiming("report.batch", &batchRTT, "us")
		res.showTiming("admin verb", &verbRTT, "us")
		res.showTiming("ctl.suspects_get", &susMs, "ms")
	}

	synced, err := plane.stop(path)
	if err != nil {
		return nil, err
	}
	if err := syncfs.CheckDurable(path, synced, history, plane.acked); err != nil {
		return nil, err
	}
	if e.traced {
		return res, nil
	}
	res.set("setup_s", medianDuration(refStarts).Seconds())
	res.set("work_per_s", medianOf(figs, nil, refRate))
	res.set("latency_p50_us", medianOf(figs, nil, refLat)/1e3)
	res.show("host speed", speed, "ratio", fmt.Sprintf("median of %d slices of %v; 1.0 is the quiet reference box", full, slice))
	res.show("ctl_ingest_sig_per_s (wall clock)", medianOf(figs, nil, wallRate), "1/s",
		fmt.Sprintf("%d-report batches, acked, closed loop", ctlBatch))
	res.show("set-up (wall clock)", medianDuration(starts).Seconds(), "s", fmt.Sprintf("median of %d control-plane starts", len(starts)))
	res.showTiming("ctl_admin_verb_p50_us", &verbRTT, "us")
	res.showTiming("connection B lateness", &lateB, "us")
	res.show("ctl_restart_replay_ms", medianDuration(opens).Seconds()*1e3, "ms",
		fmt.Sprintf("lifecycle.Open on %d records, median of %d", history, len(opens)))
	res.showTiming("report.batch (wall clock)", &batchRTT, "us")
	res.showTiming("ctl.suspects_get", &susMs, "ms")
	walStats := plane.fs.Stats()
	res.showTiming("lifecycle.wal sync", &walStats.SyncNs, "us")
	res.show("wal records acked and durable", float64(len(plane.acked)), "count", "replay == history + acked after truncating to the synced size")
	return res, nil
}

// ctlLayers runs the probes of a traced ctl-storm on the still-running
// plane: calls into each layer's public functions, timed one at a time.
func ctlLayers(e env, res *result, plane *ctlPlane, machines int, clientBatches int64) error {
	reps := 200
	if e.quick {
		reps = 20
	}

	// report: the handler without the socket.
	gen := &ctlBatchGen{rng: xrand.New(e.seed<<8 + 2), machines: machines, source: "bench-probe"}
	handler := plane.srv.Handler()
	var handlerNs hist.H
	for i := 0; i < reps; i++ {
		body, err := json.Marshal(gen.next())
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/reports", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t := time.Now()
		handler.ServeHTTP(rec, req)
		handlerNs.Record(uint64(time.Since(t)))
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("handler probe: status %d: %s", rec.Code, rec.Body)
		}
	}
	res.set("report.handler_p50_us", handlerNs.Quantile(0.5)/1e3)

	// What the server saw against what the clients sent.
	var seen, shed float64
	for _, s := range plane.srv.Metrics().Snapshot() {
		if s.Name == "ceereport_batches_total" {
			seen += s.Value
			for _, l := range s.Labels {
				if l.Key == "result" && l.Value == "shed" {
					shed += s.Value
				}
			}
		}
	}
	sent := float64(clientBatches) + float64(reps)
	res.set("report.shed_ratio", shed/seen)
	res.set("report.retry_ratio", max(seen-sent, 0)/sent)

	// detect: ingest on a tracker of its own, the sweep on the live one.
	fresh := report.NewServer(ctlCores)
	var addNs hist.H
	for i := 0; i < reps; i++ {
		b := gen.next()
		batch := make([]detect.Signal, len(b.Reports))
		for j, r := range b.Reports {
			batch[j] = detect.Signal{Machine: r.Machine, Core: r.Core, Kind: detect.SigAppError}
		}
		t := time.Now()
		fresh.IngestBatch(batch)
		addNs.Record(uint64(time.Since(t)))
	}
	res.set("detect.add_ns_per_signal", addNs.Quantile(0.5)/ctlBatch)
	var sweeps []time.Duration
	for i := 0; i < 5; i++ {
		t := time.Now()
		plane.srv.Suspects()
		sweeps = append(sweeps, time.Since(t))
	}
	res.set("detect.suspects_sweep_ms", medianDuration(sweeps).Seconds()*1e3)

	// lifecycle: verbs called directly, the ledger listed, the WAL counted.
	var verbNs hist.H
	for i := 0; i < reps; i++ {
		t := time.Now()
		if _, err := plane.mgr.CordonScored(fmt.Sprintf("probe%04d", i), 0, "probe", "bench", 1); err != nil {
			return err
		}
		verbNs.Record(uint64(time.Since(t)))
	}
	res.set("lifecycle.verb_call_p50_us", verbNs.Quantile(0.5)/1e3)
	var lists []time.Duration
	for i := 0; i < 5; i++ {
		t := time.Now()
		plane.mgr.List()
		lists = append(lists, time.Since(t))
	}
	res.set("lifecycle.list_ms", medianDuration(lists).Seconds()*1e3)
	walLayers(res, plane.fs, len(plane.acked))
	res.set("remediate.decide_ns", decideProbe())
	return nil
}

// walLayers reports what syncfs saw under the ledger: the device's share
// of a durable record, and how many syncs and bytes a record costs.
func walLayers(res *result, fs *syncfs.FS, records int) {
	st := fs.Stats()
	if records > 0 {
		res.set("lifecycle.wal_fsyncs_per_record", float64(st.Syncs)/float64(records))
		res.set("lifecycle.wal_bytes_per_record", float64(st.Bytes)/float64(records))
	}
	res.set("lifecycle.wal_sync_p50_us", st.SyncNs.Quantile(0.5)/1e3)
	res.showTiming("lifecycle.wal sync", &st.SyncNs, "us")
	res.showTiming("lifecycle.wal write", &st.WriteNs, "us")
}

// decideProbe times remediate.DefaultPolicy.Decide through the Policy
// interface, as the controller calls it.
func decideProbe() float64 {
	var policy remediate.Policy = remediate.DefaultPolicy{}
	const calls = 1_000_000
	drains := 0
	t := time.Now()
	for i := 0; i < calls; i++ {
		if policy.Decide(remediate.MachineView{Machine: "m", Score: float64(i)}).Kind == remediate.ActDrain {
			drains++
		}
	}
	took := time.Since(t)
	if drains != calls {
		return 0
	}
	return float64(took.Nanoseconds()) / calls
}
