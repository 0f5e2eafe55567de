package main

// The catalogue: every workload and every metric the harness prints, in
// one place. BENCHMARK.json at the repository root must list exactly
// these (TestBenchmarkJSONMatchesCatalogue), and a run that sets a name
// missing from here fails, so the documentation cannot drift from the
// numbers.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
	run  func(env) (*result, error)
}

// workloads is the fixed list, in the order `-workload all` runs them.
var workloads = []workloadSpec{
	{"sim-year", "fleet simulator day loop on the calibrated 20k-machine fleet: stresses fleet/screen/fault/engine/detect/quarantine, bypasses kvdb serving, HTTP and the WAL", runSimYear},
	{"kv-serve", "TolerantDB steady-state serving, 98% Get / 2% Put on clean replicas, closed loop: shard lock, engine, checksum; mitigation ladder, report path and WAL idle", runKVServe},
	{"kv-write", "same store at 50% Put / 40% Get / 10% QueryByValue: a read-side win that taxes writers or the index shows here", runKVWrite},
	{"ctl-storm", "report.Server behind HTTP with queue on and an fsynced lifecycle WAL replayed from 200k records: batch ingest, admin verbs and tracker reads side by side; kvdb and fleet idle", runCtlStorm},
	{"cee-to-cordon", "the real pipeline with only the hardware faked: stuck-bit replica, kvdb signal queue, loopback HTTP, ingest queue, tracker, controller, fsynced cordon; open loop", runCeeToCordon},
}

// metricSpec describes one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the regression bound of an end-to-end metric (0 for
	// per-layer metrics, which have none).
	Bound float64
	// Doc says what the number is: for an end-to-end metric, what it means
	// on each workload; for a layer metric, the end-to-end figure it should
	// move.
	Doc string
}

// endToEnd is what a run prints with -trace 0. The driver's contract wants
// every end-to-end metric from every workload, so the three figures are
// named by kind and each workload fills them with its own headline (the
// README maps the issue's per-workload names onto them). All three are in
// reference seconds — time restated by the host speed that bench/calib
// measured alongside the work — and a serving workload's rate is that of
// its median millisecond, because on the shared reference box identical
// code differs by a third between one run and the next on the wall clock
// (window.go, calib/calib.go). The wall-clock figures are printed next to them and, in a
// traced run, are layer metrics.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25,
		"reference time for the system under test to become ready from generated inputs (median of the repeated set-ups of one run): sim-year fleet build; kv-* store build and preload; ctl-storm lifecycle.Open replaying the 200k-record WAL plus server start (the issue's ctl_restart_replay_ms); cee-to-cordon stores, tracker noise, WAL and server"},
	{"work_per_s", "1/s", "higher", 0.25,
		"work completed per reference second: sim-year simulated days, each day the median of three passes (sim_days_per_s); kv-* client operations in the median millisecond (kv_ops_per_s); ctl-storm signals acknowledged in the median block of four batches (ctl_ingest_sig_per_s); cee-to-cordon writes per second of service time, by the median Put as a multiple of the stream's median clean read, at the reference clean read (the stream is an open loop, its rate on the wall clock is the schedule's)"},
	{"latency_p50_us", "us", "lower", 0.25,
		"median latency of the workload's headline operation, in reference time: sim-year one Runner.Step (the mean: the median day sits between two kinds of day); kv-serve a Get (kv_read_p50_ns); kv-write a Put (kv_write_p50_us); ctl-storm one acknowledged 64-report batch (ctl_admin_verb_p50_us follows the device's fsync and is a layer metric); cee-to-cordon a read that needed the mitigation ladder, from the call, as a multiple of the stream's median clean read, at the reference clean read (cee_mitigated_read_p50_us; cee_to_cordon_p50_ms read 6 to 14 ms in back-to-back identical runs and is the layer metric cee.p50_ms)"},
}

// perLayer is what a run prints with -trace 1. Every workload prints every
// name; a layer the workload leaves idle reads 0.
var perLayer = []metricSpec{
	// fleet: where a simulated day goes.
	{"fleet.phase_plan_s", "s", "lower", 0, "moves work_per_s on sim-year"},
	{"fleet.phase_sites_s", "s", "lower", 0, "the only parallel phase; moves work_per_s on sim-year"},
	{"fleet.phase_merge_s", "s", "lower", 0, "moves work_per_s on sim-year"},
	{"fleet.phase_noise_s", "s", "lower", 0, "moves work_per_s on sim-year"},
	{"fleet.phase_triage_s", "s", "lower", 0, "moves work_per_s on sim-year"},
	{"fleet.phase_suspects_s", "s", "lower", 0, "the dominant phase; moves work_per_s on sim-year"},
	{"fleet.phase_repairs_s", "s", "lower", 0, "moves work_per_s on sim-year"},
	{"fleet.step_total_s", "s", "lower", 0, "sum of traced Runner.Step calls; the phases must add up to it"},
	{"fleet.step_p50_ms", "ms", "lower", 0, "latency_p50_us on sim-year"},
	{"fleet.step_max_ms", "ms", "lower", 0, "slowest day; a tail, not bounded"},
	{"fleet.allocs_per_day", "count", "lower", 0, "GC share of work_per_s on sim-year"},
	{"fleet.alloc_kb_per_day", "KiB", "lower", 0, "GC share of work_per_s on sim-year"},
	{"fleet.days_per_s", "1/s", "higher", 0, "the issue's sim_days_per_s on the wall clock, untraced runner of the traced run; work_per_s on sim-year"},
	{"fleet.par_speedup", "ratio", "higher", 0, "gate-prefix time at parallelism 1 over nproc; stays near 1 until suspects parallelises"},
	{"fleet.corruptions", "count", "higher", 0, "non-degeneracy; bit-equal across speed-only commits"},
	{"fleet.quarantines", "count", "higher", 0, "non-degeneracy; bit-equal across speed-only commits"},
	{"fleet.active_sites_min", "count", "higher", 0, "non-degeneracy; bit-equal across speed-only commits"},
	{"screen.sessions", "count", "lower", 0, "bit-equal across speed-only commits"},
	{"screen.ops", "count", "lower", 0, "bit-equal across speed-only commits"},
	{"quarantine.isolated", "count", "higher", 0, "bit-equal across speed-only commits"},
	{"screen.confess_healthy_ms", "ms", "lower", 0, "fleet.phase_triage_s, then work_per_s on sim-year"},
	{"screen.confess_defective_ms", "ms", "lower", 0, "fleet.phase_suspects_s, then work_per_s on sim-year"},
	// kvdb: a read through shard lock, engine and checksum.
	{"kvdb.raw_get_ns", "ns", "lower", 0, "latency_p50_us on kv-serve"},
	{"kvdb.tolerant_overhead_ns", "ns", "lower", 0, "TolerantDB.Get minus DB.Get; latency_p50_us on kv-serve"},
	{"engine.copy64_ns", "ns", "lower", 0, "kvdb.raw_get_ns, then latency_p50_us on kv-serve"},
	{"kvdb.ops_per_s", "1/s", "higher", 0, "the issue's kv_ops_per_s on the wall clock; work_per_s on kv-*"},
	{"kvdb.read_p50_ns", "ns", "lower", 0, "the issue's kv_read_p50_ns on the wall clock; latency_p50_us on kv-serve"},
	{"kvdb.read_p99_ns", "ns", "lower", 0, "a tail, not bounded"},
	{"kvdb.write_p50_us", "us", "lower", 0, "the issue's kv_write_p50_us on the wall clock; latency_p50_us on kv-write"},
	{"kvdb.write_p99_us", "us", "lower", 0, "a tail, not bounded"},
	{"kvdb.query_p50_us", "us", "lower", 0, "work_per_s on kv-write"},
	{"kvdb.mitigated_read_p50_us", "us", "lower", 0, "the issue's cee_mitigated_read_p50_us on the wall clock, from the op's due time; latency_p50_us on cee-to-cordon is the same read from the call"},
	{"kvdb.retries", "count", "lower", 0, "latency_p50_us on cee-to-cordon; 0 on kv-serve"},
	{"kvdb.repairs", "count", "lower", 0, "latency_p50_us on cee-to-cordon; 0 on kv-serve"},
	{"kvdb.degraded", "count", "lower", 0, "must stay 0: a degraded serve is a plurality guess"},
	{"kvdb.retries_per_mitigated_read", "ratio", "lower", 0, "latency_p50_us on cee-to-cordon"},
	{"kvdb.signals_sent", "count", "higher", 0, "evidence reaching the report path on cee-to-cordon"},
	{"kvdb.signals_shed", "count", "lower", 0, "evidence lost before the report path; hop.detect_us"},
	// report: client, HTTP, ingest queue.
	{"report.client_rtt_p50_us", "us", "lower", 0, "latency_p50_us and work_per_s on ctl-storm; hop.deliver_us"},
	{"report.batch_p99_us", "us", "lower", 0, "a tail, not bounded"},
	{"report.handler_p50_us", "us", "lower", 0, "Handler().ServeHTTP on a recorder, no socket; report.client_rtt_p50_us"},
	{"report.queue_depth_max", "count", "lower", 0, "backlog between ack and tracker; hop.ingest_us"},
	{"report.shed_ratio", "ratio", "lower", 0, "429s per batch offered; must stay 0 on these workloads"},
	{"report.retry_ratio", "ratio", "lower", 0, "extra deliveries per client call"},
	// detect: the tracker.
	{"detect.add_ns_per_signal", "ns", "lower", 0, "work_per_s on ctl-storm; hop.ingest_us"},
	{"detect.suspects_sweep_ms", "ms", "lower", 0, "hop.nominate_ms, then cee.p50_ms on cee-to-cordon; also the fleet's suspects phase"},
	{"detect.sweeps_per_episode", "ratio", "lower", 0, "hop.nominate_ms on cee-to-cordon"},
	{"ctl.suspects_get_ms", "ms", "lower", 0, "GET /v1/suspects round trip on ctl-storm"},
	{"ctl.ingest_sig_per_s", "1/s", "higher", 0, "the issue's ctl_ingest_sig_per_s on the wall clock, with tracing on; work_per_s on ctl-storm"},
	{"ctl.admin_verb_p50_us", "us", "lower", 0, "the issue's ctl_admin_verb_p50_us: one acknowledged durable verb; demoted, it follows the device's fsync and failed A/A"},
	// lifecycle: the ledger and its WAL.
	{"lifecycle.verb_call_p50_us", "us", "lower", 0, "Manager verb called directly; ctl.admin_verb_p50_us"},
	{"lifecycle.admin_p99_us", "us", "lower", 0, "a tail, not bounded"},
	{"lifecycle.wal_sync_p50_us", "us", "lower", 0, "ctl.admin_verb_p50_us; should not move cee-to-cordon (the WAL hop is a few % there)"},
	{"lifecycle.wal_fsyncs_per_record", "ratio", "lower", 0, "1 today; group commit lowers it"},
	{"lifecycle.wal_bytes_per_record", "B", "lower", 0, "setup_s on ctl-storm (replay reads them back)"},
	{"lifecycle.replay_us_per_record", "us", "lower", 0, "setup_s on ctl-storm"},
	{"lifecycle.list_ms", "ms", "lower", 0, "GET /v1/machines cost; holds the manager lock against verbs"},
	{"remediate.decide_ns", "ns", "lower", 0, "hop.cordon_us on cee-to-cordon"},
	// hop: one episode, seam to seam.
	{"cee.p50_ms", "ms", "lower", 0, "the issue's cee_to_cordon_p50_ms on the wall clock over the traced episodes; demoted, it failed A/A; the hops add up to it"},
	{"cee.p95_ms", "ms", "lower", 0, "a tail, not bounded"},
	{"hop.detect_us", "us", "lower", 0, "OnCorrupt to sink called; cee.p50_ms on cee-to-cordon"},
	{"hop.deliver_us", "us", "lower", 0, "sink called to sink acked; cee.p50_ms on cee-to-cordon"},
	{"hop.ingest_us", "us", "lower", 0, "sink acked to OnSignal; cee.p50_ms on cee-to-cordon"},
	{"hop.nominate_ms", "ms", "lower", 0, "OnSignal to machine present in Suspects(); the dominant hop"},
	{"hop.cordon_us", "us", "lower", 0, "nomination to observer sees cordoned after fsync"},
	// the instrument itself.
	{"obs.trace_overhead_ratio", "ratio", "higher", 0, "traced over untraced headline, measured inside the traced run"},
	{"gen.late_p99_us", "us", "lower", 0, "open-loop generator lateness; cee-to-cordon only"},
	{"host.speed", "ratio", "higher", 0, "host speed bench/calib saw during the run (1.0: the quiet reference box; on cee-to-cordon, on the idle process before and after the stream); every wall-clock layer figure of the run was taken at this speed"},
}

func specNames(specs []metricSpec) map[string]bool {
	out := make(map[string]bool, len(specs))
	for _, s := range specs {
		out[s.Name] = true
	}
	return out
}
